// Command perfbench is the repository's benchmark: one seeded command
// that runs a workload, checks every output against an oracle, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics of a traced run) as a table row and, on the last line, one
// JSON object. See README.md for the workloads, the metrics and the
// layer each should move.
//
// Build and run it through run.py, which compiles this package and
// the prefgcd daemon from the surrounding checkout:
//
//	python3 perfbench/run.py --workload compile-large --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names a metric, its unit and its direction.
type metricDef struct {
	name, unit string
	higher     bool
}

// endToEnd are the metrics a user of the allocator sees; every
// workload reports all of them (see README.md for each one's meaning
// per workload).
var endToEnd = []metricDef{
	{"latency_ms_p50", "ms", false},
	{"latency_ms_p99", "ms", false},
	{"ops_per_s", "1/s", true},
	{"slo_rps", "1/s", true},
	{"est_cycles_ratio", "ratio", false},
	{"spill_instrs_per_kinstr", "count/kinstr", false},
	{"moves_remaining_per_kinstr", "count/kinstr", false},
	{"served_cycles_ratio", "ratio", false},
	{"peak_rss_mb", "MB", false},
	{"setup_s", "s", false},
}

// perLayer are the traced run's metrics, one layer each; a layer a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"ir.parse_ms", "ms", false},
	{"ir.decode_ms", "ms", false},
	{"server.key_ms", "ms", false},
	{"server.cache_hit_share", "share", true},
	{"server.evictions", "1/op", false},
	{"server.unattributed_ms", "ms", false},
	{"server.queue_depth_max", "count", false},
	{"server.rejected_share", "share", false},
	{"server.fast_served_share", "share", false},
	{"server.upgrade_ms_mean", "ms", false},
	{"server.upgrade_sheds", "1/op", false},
	{"ig.renumber_ms", "ms", false},
	{"ig.build_ms", "ms", false},
	{"ig.webs_per_round", "count", false},
	{"liveness.compute_ms", "ms", false},
	{"core.allocate_ms", "ms", false},
	{"core.rpg_ms", "ms", false},
	{"core.simplify_ms", "ms", false},
	{"core.cpg_ms", "ms", false},
	{"core.select_ms", "ms", false},
	{"core.recolor_ms", "ms", false},
	{"core.prefs_honoured_share", "share", true},
	{"core.select_spills", "1/op", false},
	{"regalloc.rounds_per_func", "count", false},
	{"regalloc.spill_ms", "ms", false},
	{"regalloc.other_ms", "ms", false},
	{"regalloc.alloc_bytes_per_func", "bytes", false},
	{"regalloc.gc_cycles", "1/op", false},
	{"linearscan.run_ms", "ms", false},
	{"gen.late_ms_p99", "ms", false},
	{"trace.overhead_share", "share", false},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	prefgcd  string // daemon binary, for the serve workloads
	traceDir string // where the traced run writes its spans
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int
	mismatches        int // oracle mismatches, a subset of failed
	values            map[string]float64
	notes             []string // failures, for stderr
	info              []string // how a figure was reached, for stdout
	tracer            *Tracer
}

// note keeps the first few failure descriptions for stderr.
func (o *outcome) note(format string, args ...any) {
	if len(o.notes) < 10 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"compile-large":  runCompile,
	"serve-cold":     runServeCold,
	"serve-tier-hot": runServeTierHot,
}

var workloadOrder = []string{"compile-large", "serve-cold", "serve-tier-hot"}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: compile-large, serve-cold, serve-tier-hot, or all")
	seed := fs.Int64("seed", 1, "seed for the inputs and the request schedule")
	seconds := fs.Int("seconds", 20, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	prefgcd := fs.String("prefgcd", filepath.Join(".bench_build", "perfbench", "prefgcd"), "prefgcd daemon binary")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "perfbench", "trace"), "directory for the traced run's span files")
	spinner := fs.Bool("spin", false, "run as the idle-priority spinner that every workload runs beside (see spin.go)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spinner {
		return spin()
	}
	names := []string{*wl}
	if *wl == "all" {
		names = workloadOrder
	} else if workloads[*wl] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	defs := endToEnd
	if *trace != 0 {
		defs = perLayer
	}
	fmt.Printf("# perfbench seed=%d seconds=%d trace=%d nproc=%d %s\n",
		*seed, *seconds, *trace, runtime.NumCPU(), runtime.Version())

	if stop, err := startSpinner(); err != nil {
		fmt.Printf("# no idle-priority spinner (%v): processors go idle between operations\n", err)
	} else {
		defer stop()
	}

	res := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, name := range names {
		cfg := runConfig{
			workload: name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
			trace: *trace != 0, prefgcd: *prefgcd, traceDir: *traceDir,
		}
		steal0, total0 := cpuTimes()
		o, err := workloads[name](cfg)
		steal1, total1 := cpuTimes()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		for _, n := range o.notes {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", name, n)
		}
		if o.tracer != nil {
			path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, *seed))
			if err := o.tracer.WriteFile(path); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
				return 1
			}
			acc := o.tracer.Accounting()
			for _, root := range sortedKeys(acc) {
				a := acc[root]
				fmt.Printf("# %s accounting: %s: layers+unattributed %.3f ms = %.2f%% of %.3f ms over %.0f ops; spans in %s\n",
					name, root, a[0]/1e6, 100*a[0]/a[1], a[1]/1e6, a[2], path)
			}
		}
		if total1 > total0 {
			// A slow or noisy run often shows here first.
			fmt.Printf("# %s host steal: %.1f%% of CPU time during the run\n", name, 100*(steal1-steal0)/(total1-total0))
		}
		for _, line := range o.info {
			fmt.Printf("# %s %s\n", name, line)
		}
		printRow(name, o, defs)
		res.Attempted += o.attempted
		res.Failed += o.failed
		if o.mismatches > 0 || o.attempted == 0 {
			res.Correct = false
		}
		for _, d := range defs {
			v, ok := o.values[d.name]
			if !ok && cfg.trace {
				v, ok = 0, true // a layer this workload does not exercise
			}
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s did not report %s\n", name, d.name)
				return 1
			}
			key := d.name
			if len(names) > 1 {
				key = name + "." + d.name
			}
			res.Metrics[key] = jsonMetric{Value: v, Unit: d.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: outputs disagree with the oracle")
		return 1
	}
	return 0
}

// printRow prints one workload's metrics as a single table row:
// failed_share first, then every metric by name and unit.
func printRow(name string, o *outcome, defs []metricDef) {
	var b strings.Builder
	share := 0.0
	if o.attempted > 0 {
		share = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(&b, "%-15s failed_share=%g share (%d/%d)", name, share, o.failed, o.attempted)
	for _, d := range defs {
		fmt.Fprintf(&b, "  %s=%.4g %s", d.name, o.values[d.name], d.unit)
	}
	fmt.Println(b.String())
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
