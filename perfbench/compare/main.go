// Command compare reads benchmark runs and judges them, the offline
// stand-in for benchstat.
//
// A set of runs is a directory of files named <workload>-<seed>.out,
// each the standard output of one perfbench run; the last line of
// each is the run's JSON result.
//
//	go run ./compare -spec ../BENCHMARK.json -runs DIR
//
// prints, per workload × metric, the median, quartiles and spread of
// one set against the metric's bound.
//
//	go run ./compare -spec ../BENCHMARK.json -parent DIR -change DIR
//
// pairs the two sets by file name (same workload, same seed) and
// prints a verdict per workload × metric: improved, unchanged, worse or
// unresolved, by the rule in stat.Compare. Per-layer metrics have no
// bound; for them a change is improved or worse only by that rule's
// nine-tenths-and-IQR test, in either direction. The exit code is 1
// when any end-to-end metric is worse.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"prefcolor/perfbench/stat"
)

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	layer  bool
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type result struct {
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runSet maps workload → file name → result.
type runSet map[string]map[string]result

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition")
	runs := flag.String("runs", "", "one set of runs: print spreads")
	parent := flag.String("parent", "", "parent set of runs")
	change := flag.String("change", "", "change set of runs")
	flag.Parse()
	sp, err := readSpec(*specPath)
	if err != nil {
		fail(err)
	}
	switch {
	case *runs != "":
		set, err := readRuns(*runs)
		if err != nil {
			fail(err)
		}
		spreads(sp, set)
	case *parent != "" && *change != "":
		p, err := readRuns(*parent)
		if err != nil {
			fail(err)
		}
		c, err := readRuns(*change)
		if err != nil {
			fail(err)
		}
		if verdicts(sp, p, c) {
			os.Exit(1)
		}
	default:
		fail(fmt.Errorf("give -runs DIR, or -parent DIR and -change DIR"))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(2)
}

func readSpec(path string) ([]specMetric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for i := range s.PerLayer {
		s.PerLayer[i].layer = true
	}
	return append(s.EndToEnd, s.PerLayer...), nil
}

func readRuns(dir string) (runSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.out"))
	if err != nil {
		return nil, err
	}
	set := runSet{}
	for _, p := range paths {
		base := strings.TrimSuffix(filepath.Base(p), ".out")
		cut := strings.LastIndex(base, "-")
		if cut < 0 {
			return nil, fmt.Errorf("%s: want <workload>-<seed>.out", p)
		}
		r, err := lastResult(p)
		if err != nil {
			return nil, err
		}
		wl := base[:cut]
		if set[wl] == nil {
			set[wl] = map[string]result{}
		}
		set[wl][filepath.Base(p)] = r
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no *.out runs", dir)
	}
	return set, nil
}

// lastResult parses the JSON object on a run's last non-empty line.
func lastResult(path string) (result, error) {
	f, err := os.Open(path)
	if err != nil {
		return result{}, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	if err := sc.Err(); err != nil {
		return result{}, err
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return result{}, fmt.Errorf("%s: last line: %w", path, err)
	}
	return r, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// values returns one metric's values over the named runs, in order;
// ok is false if any run lacks it.
func values(runs map[string]result, files []string, metric string) ([]float64, bool) {
	xs := make([]float64, 0, len(files))
	for _, f := range files {
		m, ok := runs[f].Metrics[metric]
		if !ok {
			return nil, false
		}
		xs = append(xs, m.Value)
	}
	return xs, true
}

func spreads(sp []specMetric, set runSet) {
	fmt.Printf("%-15s %-28s %4s %12s %12s %12s %8s %6s\n", "workload", "metric", "n", "q1", "median", "q3", "spread", "bound")
	for _, wl := range sortedKeys(set) {
		files := sortedKeys(set[wl])
		for _, m := range sp {
			xs, ok := values(set[wl], files, m.Name)
			if !ok {
				continue
			}
			q1, q3 := stat.Quartiles(xs)
			flag := ""
			switch spread := stat.Spread(xs); {
			case m.layer || m.Name == "setup_s":
			case spread > m.Bound:
				flag = "  > bound"
			case spread > m.Bound/3:
				flag = "  > bound/3"
			}
			fmt.Printf("%-15s %-28s %4d %12.5g %12.5g %12.5g %8.4f %6.3g%s\n",
				wl, m.Name, len(xs), q1, stat.Median(xs), q3, stat.Spread(xs), m.Bound, flag)
		}
	}
}

// verdicts prints one verdict per workload × metric and reports
// whether any end-to-end metric is worse.
func verdicts(sp []specMetric, parent, change runSet) bool {
	anyWorse := false
	fmt.Printf("%-15s %-28s %4s %12s %12s %8s  %s\n", "workload", "metric", "n", "parent", "change", "delta", "verdict")
	for _, wl := range sortedKeys(parent) {
		var files []string
		for _, f := range sortedKeys(parent[wl]) {
			if _, ok := change[wl][f]; ok {
				files = append(files, f)
			}
		}
		if len(files) == 0 {
			fmt.Printf("%-15s (no paired runs)\n", wl)
			continue
		}
		for _, m := range sp {
			p, ok1 := values(parent[wl], files, m.Name)
			c, ok2 := values(change[wl], files, m.Name)
			if !ok1 || !ok2 {
				continue
			}
			higher := m.Better == "higher"
			var v stat.Verdict
			if m.layer {
				switch {
				case stat.Compare(p, c, higher, 0) == stat.Improved:
					v = stat.Improved
				case stat.Compare(c, p, higher, 0) == stat.Improved:
					v = stat.Worse
				default:
					v = stat.Unchanged
				}
			} else {
				v = stat.Compare(p, c, higher, m.Bound)
				anyWorse = anyWorse || v == stat.Worse
			}
			pm, cm := stat.Median(p), stat.Median(c)
			delta := 0.0
			if pm != 0 {
				delta = (cm - pm) / pm
			}
			fmt.Printf("%-15s %-28s %4d %12.5g %12.5g %+7.1f%%  %s\n", wl, m.Name, len(files), pm, cm, 100*delta, v)
		}
	}
	return anyWorse
}
