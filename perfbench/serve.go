package main

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"prefcolor/internal/bench"
	"prefcolor/internal/core"
	"prefcolor/internal/ir"
	"prefcolor/internal/linearscan"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/server"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
	"prefcolor/perfbench/stat"
)

// answer is an oracle's allocation of one pool entry.
type answer struct {
	digest string
	cycles float64
}

// poolItem is one function the serve workloads send, in both wire
// forms, with the answers the daemon must give for it.
type poolItem struct {
	f        *ir.Func // as parsed back from text, the daemon's view
	m        *target.Machine
	text     string
	bin      []byte
	jsonBody []byte
	query    string // binary-request query string
	full     answer // pref-full
	fast     answer // linear-scan fast tier (serve-tier-hot only)
	q        quality
}

// newPoolItem serializes f and computes its oracles in-process:
// regalloc.Run pref-full always, linearscan.Run when withFast.
func newPoolItem(f *ir.Func, machine string, m *target.Machine, noCache, withFast bool,
	ws *regalloc.Workspace, lws *linearscan.Workspace) (poolItem, error) {

	text := f.String()
	parsed, err := ir.Parse(text)
	if err != nil {
		return poolItem{}, fmt.Errorf("oracle parse %s: %w", f.Name, err)
	}
	body, err := json.Marshal(struct {
		Source  string `json:"source"`
		Machine string `json:"machine"`
		NoCache bool   `json:"no_cache,omitempty"`
	}{text, machine, noCache})
	if err != nil {
		return poolItem{}, err
	}
	q := url.Values{"machine": {machine}}
	if noCache {
		q.Set("no_cache", "true")
	}
	it := poolItem{f: parsed, m: m, text: text, bin: ir.EncodeBinary(parsed), jsonBody: body, query: q.Encode()}
	out, st, err := regalloc.Run(parsed, m, core.New(), regalloc.Options{Workspace: ws})
	if err != nil {
		return poolItem{}, fmt.Errorf("oracle %s: %w", f.Name, err)
	}
	it.q = qualityOf(parsed, out, st, m)
	it.full = answer{bench.FuncDigest(parsed.Name, st, out), it.q.cycles}
	if withFast {
		out, st, err := linearscan.Run(parsed, m, linearscan.RunOptions{Workspace: lws})
		if err != nil {
			return poolItem{}, fmt.Errorf("fast oracle %s: %w", f.Name, err)
		}
		it.fast = answer{bench.FuncDigest(parsed.Name, st, out), qualityOf(parsed, out, st, m).cycles}
	}
	return it, nil
}

// serveRun is one serve workload's daemon, pool and client.
type serveRun struct {
	cfg    runConfig
	conns  int
	pool   []poolItem
	client *http.Client
	d      *daemon // the running daemon; launch replaces it
	flags  []string
	warmN  int // warm-up calls each daemon gets
	o      *outcome
	pick   func(*rand.Rand) int
	memo   *bodyMemo // the daemon's raw-bytes key memo, as the schedule fills it
}

// bodyMemo mirrors the daemon's raw-bytes key memo (server.KeyResolver
// with 4 × -cache entries, least recently used out), keyed by (item,
// binary), so the replay knows which requests the daemon parsed while
// keying them.
type bodyMemo struct {
	capacity int
	order    *list.List // front = most recent; values are [2]int
	items    map[[2]int]*list.Element
}

func newBodyMemo(capacity int) *bodyMemo {
	return &bodyMemo{capacity: capacity, order: list.New(), items: map[[2]int]*list.Element{}}
}

// touch records a request for key and reports whether it missed.
func (m *bodyMemo) touch(key [2]int) bool {
	if el, ok := m.items[key]; ok {
		m.order.MoveToFront(el)
		return false
	}
	if m.capacity <= 0 {
		return true
	}
	if m.order.Len() >= m.capacity {
		oldest := m.order.Back()
		m.order.Remove(oldest)
		delete(m.items, oldest.Value.([2]int))
	}
	m.items[key] = m.order.PushFront(key)
	return true
}

func (s *serveRun) request(ctx context.Context, c call) (*http.Request, error) {
	it := &s.pool[c.item]
	if c.binary {
		return post(ctx, s.d.base+"/v1/allocate?"+it.query, server.BinaryContentType, it.bin)
	}
	return post(ctx, s.d.base+"/v1/allocate", "application/json", it.jsonBody)
}

// phase runs one open-loop schedule and checks every answer against
// the oracle for the tier that served it. It returns the indices of
// the calls answered correctly.
func (s *serveRun) phase(sched []call, drainCap time.Duration) ([]callResult, []int) {
	res := openLoop(s.client, s.request, sched, s.conns, drainCap)
	var ok []int
	for i, c := range sched {
		r := &res[i]
		r.memoMiss = s.memo.touch([2]int{c.item, boolInt(c.binary)})
		s.o.attempted++
		if r.err != nil || r.status != http.StatusOK {
			s.o.failed++
			s.o.note("request %d (%s): status %d: %v", i, s.pool[c.item].f.Name, r.status, r.err)
			continue
		}
		want := s.pool[c.item].full
		if r.reply.Tier == "fast" {
			want = s.pool[c.item].fast
		}
		if r.reply.Digest != want.digest {
			s.o.failed++
			s.o.mismatches++
			s.o.note("%s (tier %q): digest differs from the oracle", s.pool[c.item].f.Name, r.reply.Tier)
			continue
		}
		ok = append(ok, i)
	}
	return res, ok
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// launch stops the running daemon, if any, and starts a fresh one with
// s.flags, warmed with s.warmN calls sent back to back (the same calls
// every time) and then left until its background upgrades are done, so
// that every daemon launched starts measurement in the same state. It
// returns the time that took.
func (s *serveRun) launch() (time.Duration, error) {
	s.stop()
	t0 := time.Now()
	d, err := startDaemon(s.client, s.cfg.prefgcd, s.flags...)
	if err != nil {
		return 0, err
	}
	s.d = d
	rng := newRand(s.cfg.seed, s.cfg.workload+"/warm")
	sched := make([]call, s.warmN)
	for i := range sched {
		sched[i] = call{item: s.pick(rng), binary: rng.Intn(2) == 1}
	}
	s.phase(sched, 30*time.Second)
	if err := d.awaitUpgrades(s.client); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// stop stops the running daemon, if any.
func (s *serveRun) stop() {
	if s.d != nil {
		s.d.stop()
		s.d = nil
	}
}

// latencies returns the OK calls' latencies from due time.
func latencies(sched []call, res []callResult, ok []int) []float64 {
	lat := make([]float64, len(ok))
	for k, i := range ok {
		lat[k] = res[i].latencyMS(sched[i])
	}
	return lat
}

// slotMins returns, for each call of a schedule played once per
// element of res, the least over the plays of f of its result.
func slotMins(res [][]callResult, f func(i int, r *callResult) float64) []float64 {
	out := make([]float64, len(res[0]))
	for i := range out {
		out[i] = math.Inf(1)
		for k := range res {
			out[i] = math.Min(out[i], f(i, &res[k][i]))
		}
	}
	return out
}

// answeredRate is the rate a phase was answered at: OK calls per
// second from its start to its last answer. It falls below the
// offered rate when calls fail or a backlog outlasts the schedule.
func answeredRate(res []callResult, ok []int) float64 {
	var end time.Duration
	for _, i := range ok {
		end = max(end, res[i].done)
	}
	return float64(len(ok)) / end.Seconds()
}

// servedRatio is the mean, over the OK calls of every play of sched,
// of the served answer's cycles ÷ the pref-full answer's cycles.
func (s *serveRun) servedRatio(sched []call, res [][]callResult, ok [][]int) float64 {
	sum, n := 0.0, 0
	for k := range res {
		for _, i := range ok[k] {
			it := &s.pool[sched[i].item]
			served := it.full.cycles
			if res[k][i].reply.Tier == "fast" {
				served = it.fast.cycles
			}
			sum += served / it.full.cycles
			n++
		}
	}
	return sum / float64(n)
}

// sloFunc finds a serve workload's slo_rps once its fixed-rate phase
// is over: rng continues the phase's schedule, svcMS are the calls'
// connection-busy times (each its least over the plays), and left is
// what remains of the run. The string describes how.
type sloFunc func(rng *rand.Rand, svcMS []float64, left time.Duration) (float64, string)

// endToEnd measures a fixed-rate phase for share of the run, then
// finds slo_rps with slo in the rest. The phase is one schedule played
// plays times, each time to a freshly launched daemon, and a call's
// latency and service time are their least over the plays: the host
// this was tuned on stalls its processors for milliseconds at a time,
// at times for half the requests of a play, so a call's figure is only
// its own when it drew a play in which no stall slowed it (see
// README.md, Steadiness). The percentiles are over those least values.
// corpus is the set-up time before the first launch.
func (s *serveRun) endToEnd(rate, share float64, plays int, slo sloFunc, corpus time.Duration) error {
	rng := newRand(s.cfg.seed, s.cfg.workload+"/schedule")
	fixed := time.Duration(share * float64(s.cfg.seconds))
	sched := poissonSchedule(rng, rate, fixed/time.Duration(plays), s.pick)
	res := make([][]callResult, plays)
	ok := make([][]int, plays)
	rates := make([]float64, plays)
	rss := make([]float64, plays)
	launches := make([]float64, plays)
	for k := range res {
		t, err := s.launch()
		if err != nil {
			return err
		}
		launches[k] = t.Seconds()
		res[k], ok[k] = s.phase(sched, 10*time.Second)
		rates[k] = answeredRate(res[k], ok[k])
		rss[k] = s.d.peakRSSMB()
	}
	lat := slotMins(res, func(i int, r *callResult) float64 { return r.latencyMS(sched[i]) })
	svc := slotMins(res, func(_ int, r *callResult) float64 { return float64(r.done-r.sent) / float64(time.Millisecond) })
	s.o.info = append(s.o.info, fmt.Sprintf("percentiles over %d calls, each its least latency over %d plays of the schedule to fresh daemons", len(sched), plays))
	vals := s.o.values
	vals["latency_ms_p50"] = stat.Percentile(lat, 50)
	vals["latency_ms_p99"] = stat.Percentile(lat, 99)
	vals["ops_per_s"] = stat.Median(rates)
	vals["served_cycles_ratio"] = s.servedRatio(sched, res, ok)
	var desc string
	vals["slo_rps"], desc = slo(rng, svc, s.cfg.seconds-fixed)
	s.o.info = append(s.o.info, desc)
	qs := make([]quality, len(s.pool))
	for i := range s.pool {
		qs[i] = s.pool[i].q
	}
	qualityMetrics(qs, vals)
	vals["peak_rss_mb"] = stat.Median(rss)
	// Each launch is set-up; counting plays × the median launch keeps
	// a one-off stall out of setup_s.
	vals["setup_s"] = corpus.Seconds() + float64(plays)*stat.Median(launches)
	return nil
}

// traced runs the fixed rate in four segments, alternately untraced
// and traced, so drift in the host's speed falls on both alike. The
// traced segments poll /metrics for the queue depth and diff its
// counters around themselves; their calls, with results and the summed
// counter differences, are returned for replay. trace.overhead_share
// compares the traced segments' p50 with the untraced ones'.
func (s *serveRun) traced(rate float64) (sched []call, res []callResult, ok []int, delta map[string]float64, err error) {
	rng := newRand(s.cfg.seed, s.cfg.workload+"/schedule")
	seg := s.cfg.seconds / 4
	delta = map[string]float64{}
	var untracedLat []float64
	maxDepth := 0.0
	for k := 0; k < 4; k++ {
		ss := poissonSchedule(rng, rate, seg, s.pick)
		if k%2 == 0 {
			r, o := s.phase(ss, 10*time.Second)
			untracedLat = append(untracedLat, latencies(ss, r, o)...)
			continue
		}
		before, err := s.d.scrape(context.Background(), s.client)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		pollCtx, stopPoll := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-pollCtx.Done():
					return
				case <-tick.C:
					if m, err := s.d.scrape(pollCtx, s.client); err == nil {
						maxDepth = math.Max(maxDepth, m["prefgcd_queue_depth"])
					}
				}
			}
		}()
		r, o := s.phase(ss, 10*time.Second)
		stopPoll()
		wg.Wait()
		after, err := s.d.scrape(context.Background(), s.client)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		for key, v := range diff(before, after) {
			delta[key] += v
		}
		for _, i := range o {
			ok = append(ok, len(sched)+i)
		}
		sched = append(sched, ss...)
		res = append(res, r...)
	}
	vals := s.o.values
	vals["trace.overhead_share"] = stat.Percentile(latencies(sched, res, ok), 50)/stat.Percentile(untracedLat, 50) - 1
	vals["gen.late_ms_p99"] = lateP99(sched, res)
	vals["server.queue_depth_max"] = maxDepth
	rejected := 0
	for i := range res {
		if res[i].status == http.StatusTooManyRequests {
			rejected++
		}
	}
	n := float64(len(sched))
	vals["server.rejected_share"] = float64(rejected) / n
	hits, misses := delta["prefgcd_cache_hits_total"], delta["prefgcd_cache_misses_total"]
	vals["server.cache_hit_share"] = ratio(hits, hits+misses)
	vals["server.evictions"] = delta["prefgcd_cache_evictions_total"] / n
	fast, full := delta[`prefgcd_tier_served_total{tier="fast"}`], delta[`prefgcd_tier_served_total{tier="full"}`]
	vals["server.fast_served_share"] = ratio(fast, fast+full)
	vals["server.upgrade_ms_mean"] = 1000 * ratio(delta["prefgcd_tier_upgrade_seconds_total"], delta["prefgcd_tier_upgrades_total"])
	vals["server.upgrade_sheds"] = delta["prefgcd_tier_upgrade_sheds_total"] / n
	return sched, res, ok, delta, nil
}

// probeSLO finds slo_rps by open-loop probes of the daemon: probes
// probes sharing left, the ladder search starting from guess (see
// sloSearch).
func (s *serveRun) probeSLO(rng *rand.Rand, guess float64, probes int, left time.Duration) (float64, string) {
	return sloSearch(guess, probes, left/time.Duration(probes), func(r float64, d time.Duration) float64 {
		sched := poissonSchedule(rng, r, d, s.pick)
		res, _ := s.phase(sched, 5*time.Second)
		return probeP99(sched, res)
	})
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func newServeRun(cfg runConfig) *serveRun {
	// The generator shares the processors with the daemon; collecting
	// its small heap less often keeps its pauses out of the timings.
	debug.SetGCPercent(400)
	conns := runtime.NumCPU()
	return &serveRun{
		cfg: cfg, conns: conns, client: newClient(conns),
		o:    &outcome{values: map[string]float64{}},
		memo: newBodyMemo(0),
	}
}

// serve-cold: every request carries no_cache, so each one is decoded
// and allocated from scratch; functions come from the nine benchmark
// profiles, regenerated under the seed, for three machines.
const (
	coldRate      = 110 // fixed-phase requests per second
	coldGuess     = 300 // where the slo_rps search starts, per second
	coldWarmCalls = 200
	coldPlays     = 2 // of the fixed phase's schedule: 12 s each, about 1320 calls
)

var coldMachines = []string{"ia64", "x86", "s390"}

func runServeCold(cfg runConfig) (*outcome, error) {
	s := newServeRun(cfg)
	defer s.stop()
	ws := regalloc.NewWorkspace()
	corpus, err := shardedSetup(len(coldMachines), func(shard int) error {
		name := coldMachines[shard]
		spec := server.Spec{Machine: name}
		m, err := spec.Normalize()
		if err != nil {
			return err
		}
		for _, p := range workload.Benchmarks() {
			p.Seed = derive(cfg.seed, "serve-cold/"+name+"/"+p.Name, 0)
			for _, f := range workload.Generate(p, m) {
				it, err := newPoolItem(f, name, m, true, false, ws, nil)
				if err != nil {
					return err
				}
				s.pool = append(s.pool, it)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := len(s.pool)
	s.pick = func(r *rand.Rand) int { return r.Intn(n) }
	s.flags, s.warmN = []string{"-workers", fmt.Sprint(s.conns)}, coldWarmCalls
	if !cfg.trace {
		err := s.endToEnd(coldRate, 0.6, coldPlays, func(rng *rand.Rand, _ []float64, left time.Duration) (float64, string) {
			return s.probeSLO(rng, coldGuess, 5, left)
		}, corpus)
		return s.o, err
	}
	if _, err := s.launch(); err != nil {
		return nil, err
	}
	sched, res, ok, delta, err := s.traced(coldRate)
	if err != nil {
		return nil, err
	}
	s.replay(sched, res, ok, delta)
	return s.o, nil
}

// serve-tier-hot: a tier-mode daemon with its cache on, under a fixed
// rate of Zipf-popular keys over a pool larger than the cache.
const (
	hotRate      = 200 // fixed-phase requests per second
	hotCache     = 96  // daemon -cache entries; the pool is 3.75× larger
	hotWarmCalls = 400
	hotZipfS     = 1.1
	// Plays of the fixed phase's schedule: 5.7 s each in a 40 s run, so
	// about 1140 calls and more than ten beyond the p99.
	hotPlays = 7
)

func runServeTierHot(cfg runConfig) (*outcome, error) {
	s := newServeRun(cfg)
	defer s.stop()
	s.memo = newBodyMemo(4 * hotCache)
	m := target.UsageModel(16)
	ws := regalloc.NewWorkspace()
	lws := linearscan.NewFastWorkspace()
	corpus, err := shardedSetup(3, func(shard int) error {
		var profiles []workload.Profile
		for j := 0; j < 10; j++ {
			p, err := workload.ByName("compress")
			if err != nil {
				return err
			}
			p.Name = fmt.Sprintf("compress%d", shard*10+j)
			profiles = append(profiles, p)
		}
		large := workload.Large()
		large.Name = fmt.Sprintf("large%d", shard)
		profiles = append(profiles, large)
		for i, p := range profiles {
			p.Seed = derive(cfg.seed, "serve-tier-hot", shard*len(profiles)+i)
			for _, f := range workload.Generate(p, m) {
				it, err := newPoolItem(f, "ia64", m, false, true, ws, lws)
				if err != nil {
					return err
				}
				s.pool = append(s.pool, it)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Popularity rank r has weight 1/r^s. Ranks map to pool entries
	// through a seeded permutation, so which functions are hot varies
	// with the seed; the permutation is stratified by shape — every
	// third rank is a large function — so that each popularity band,
	// and with it the mix of cheap and costly cache misses, is the
	// same for every seed.
	rng := newRand(cfg.seed, "serve-tier-hot/popularity")
	var small, large []int
	for i := range s.pool {
		if strings.HasPrefix(s.pool[i].f.Name, "large") {
			large = append(large, i)
		} else {
			small = append(small, i)
		}
	}
	rng.Shuffle(len(small), func(i, j int) { small[i], small[j] = small[j], small[i] })
	rng.Shuffle(len(large), func(i, j int) { large[i], large[j] = large[j], large[i] })
	perm := make([]int, 0, len(s.pool))
	for r := 0; len(small)+len(large) > 0; r++ {
		if (r%3 == 2 && len(large) > 0) || len(small) == 0 {
			perm, large = append(perm, large[0]), large[1:]
		} else {
			perm, small = append(perm, small[0]), small[1:]
		}
	}
	cdf := make([]float64, len(s.pool))
	total := 0.0
	for r := range cdf {
		total += 1 / math.Pow(float64(r+1), hotZipfS)
		cdf[r] = total
	}
	s.pick = func(rng *rand.Rand) int {
		x := rng.Float64() * total
		lo, hi := 0, len(cdf)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return perm[lo]
	}
	s.flags = []string{"-tier", "-cache", fmt.Sprint(hotCache), "-workers", fmt.Sprint(s.conns)}
	s.warmN = hotWarmCalls
	if !cfg.trace {
		// Probes of the live daemon near its capacity gave 1200/s in
		// one run of a seed and 1760/s in the next (README.md,
		// Steadiness), so slo_rps here is simulated from the service
		// times measured at the fixed rate, as on compile-large.
		err := s.endToEnd(hotRate, 1, hotPlays, func(_ *rand.Rand, svc []float64, _ time.Duration) (float64, string) {
			return simulateSLO(svc, s.conns, newRand(cfg.seed, "serve-tier-hot/arrivals")),
				fmt.Sprintf("slo_rps simulated: %d FIFO connections fed Poisson arrivals, service times drawn from %d measured", s.conns, len(svc))
		}, corpus)
		return s.o, err
	}
	if _, err := s.launch(); err != nil {
		return nil, err
	}
	sched, res, ok, delta, err := s.traced(hotRate)
	if err != nil {
		return nil, err
	}
	s.replay(sched, res, ok, delta)
	return s.o, nil
}
