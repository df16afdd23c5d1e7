package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"prefcolor/internal/bench"
	"prefcolor/internal/core"
	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/liveness"
	"prefcolor/internal/perfmodel"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/telemetry"
	"prefcolor/internal/workload"
	"prefcolor/perfbench/stat"
)

// compile-large: one caller allocating workload.Large()-shaped
// functions back to back with a pooled warm workspace, pref-full, on
// the ia64 usage model with k=16 — the view a JIT has of the
// allocator.
const (
	compileShards        = 3
	compileSeedsPerShard = 3 // × workload.Large().Funcs functions
)

// passTime is one timed allocation: in which pass, and how long.
type passTime struct {
	pass int
	ms   float64
}

// oracleFunc is one input with the answer it must produce.
type oracleFunc struct {
	f       *ir.Func
	digest  string
	quality quality
}

// quality is the code-quality record of one allocated function.
type quality struct {
	cycles, inCycles float64 // perfmodel estimate of the output and of the input
	instrs           int     // input instructions
	spills, moves    int     // spill instructions and surviving copies
}

func qualityOf(in, out *ir.Func, st *regalloc.Stats, m *target.Machine) quality {
	return quality{
		cycles:   perfmodel.Estimate(out, m).Cycles,
		inCycles: perfmodel.Estimate(in, m).Cycles,
		instrs:   in.NumInstrs(),
		spills:   st.SpillInstrs(),
		moves:    st.MovesRemaining,
	}
}

// qualityMetrics condenses a corpus's quality records into the three
// code-quality metrics: the geometric mean over functions of output
// cycles ÷ input cycles, and spill instructions and remaining copies
// per thousand input instructions. Normalizing by the input keeps the
// figures comparable across seeds, whose corpora differ.
func qualityMetrics(qs []quality, vals map[string]float64) {
	logSum, instrs, spills, moves := 0.0, 0, 0, 0
	for _, q := range qs {
		logSum += math.Log(q.cycles / q.inCycles)
		instrs += q.instrs
		spills += q.spills
		moves += q.moves
	}
	vals["est_cycles_ratio"] = math.Exp(logSum / float64(len(qs)))
	vals["spill_instrs_per_kinstr"] = 1000 * float64(spills) / float64(instrs)
	vals["moves_remaining_per_kinstr"] = 1000 * float64(moves) / float64(instrs)
}

func runCompile(cfg runConfig) (*outcome, error) {
	m := target.UsageModel(16)
	ws := regalloc.NewWorkspace()
	var corpus []oracleFunc
	setup, err := shardedSetup(compileShards, func(shard int) error {
		for j := 0; j < compileSeedsPerShard; j++ {
			idx := shard*compileSeedsPerShard + j
			p := workload.Large()
			p.Name = fmt.Sprintf("large%d", idx)
			p.Seed = derive(cfg.seed, "compile-large", idx)
			for _, f := range workload.Generate(p, m) {
				// The oracle: the full validity check, outside any
				// timed region; every timed pass must reproduce its
				// digest.
				out, st, err := regalloc.RunChecked(f, m, core.New(), regalloc.Options{Workspace: ws})
				if err != nil {
					return fmt.Errorf("oracle %s: %w", f.Name, err)
				}
				corpus = append(corpus, oracleFunc{
					f:       f,
					digest:  bench.FuncDigest(f.Name, st, out),
					quality: qualityOf(f, out, st, m),
				})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	o := &outcome{values: map[string]float64{}}
	rng := newRand(cfg.seed, "compile-large/order")
	order := rng.Perm(len(corpus))
	var tr *Tracer
	var lay compileLayers
	var ps probeScratch
	if cfg.trace {
		tr = newTracer()
	}
	perFunc := make([][]passTime, len(corpus)) // timed ops, by function
	var passRates []float64                    // ops ÷ allocation time, per complete pass
	var untraced, traced []float64
	deadline := time.Now().Add(cfg.seconds)
	passes := 0
	for pass := 0; time.Now().Before(deadline); pass++ {
		passes = pass + 1
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var busy time.Duration
		done := 0
		tracedPass := tr != nil && pass%2 == 1
		for _, i := range order {
			if !time.Now().Before(deadline) {
				break
			}
			c := &corpus[i]
			var out *ir.Func
			var st *regalloc.Stats
			var d time.Duration
			if tracedPass {
				out, st, d, err = lay.tracedRun(tr, c.f, m, ws, &ps)
			} else {
				t0 := time.Now()
				out, st, err = regalloc.Run(c.f, m, core.New(), regalloc.Options{Workspace: ws})
				d = time.Since(t0)
			}
			o.attempted++
			busy += d
			done++
			ms := float64(d) / float64(time.Millisecond)
			switch {
			case err != nil:
				o.failed++
				o.note("%s: %v", c.f.Name, err)
				continue
			case bench.FuncDigest(c.f.Name, st, out) != c.digest:
				o.failed++
				o.mismatches++
				o.note("%s: digest differs from the RunChecked oracle", c.f.Name)
				continue
			}
			switch {
			case tr == nil:
				perFunc[i] = append(perFunc[i], passTime{pass, ms})
			case tracedPass:
				traced = append(traced, ms)
			default:
				untraced = append(untraced, ms)
			}
		}
		if done == len(order) {
			passRates = append(passRates, float64(done)/busy.Seconds())
		}
	}
	if len(passRates) == 0 {
		return nil, fmt.Errorf("compile-large: no complete pass in %v; raise --seconds", cfg.seconds)
	}

	if tr != nil {
		lay.report(tr, o.values)
		o.values["trace.overhead_share"] = stat.Mean(traced)/stat.Mean(untraced) - 1
		o.tracer = tr
		return o, nil
	}
	// Latency percentiles are taken over medians across passes, so a
	// slow stretch of the host during one pass moves no figure: p50
	// over each function's median, p99 over each function's median in
	// each third of the passes, so that it rests on three samples per
	// function and so on ten or more beyond it. A pause that slows one
	// operation, such as a garbage collection, does not show in them.
	medians := make([]float64, 0, len(perFunc))
	var thirds []float64
	for _, ts := range perFunc {
		var all []float64
		var by [3][]float64
		for _, t := range ts {
			all = append(all, t.ms)
			g := 3 * t.pass / passes
			by[g] = append(by[g], t.ms)
		}
		if len(all) > 0 {
			medians = append(medians, stat.Median(all))
		}
		for _, xs := range by {
			if len(xs) > 0 {
				thirds = append(thirds, stat.Median(xs))
			}
		}
	}
	o.values["latency_ms_p50"] = stat.Percentile(medians, 50)
	o.values["latency_ms_p99"] = stat.Percentile(thirds, 99)
	o.values["ops_per_s"] = stat.Median(passRates)
	// One compiling thread; each function's compile time is its median
	// over the timed passes, so a stall of the host during one pass
	// does not decide the figure.
	o.values["slo_rps"] = simulateSLO(medians, 1, newRand(cfg.seed, "compile-large/arrivals"))
	qs := make([]quality, len(corpus))
	for i := range corpus {
		qs[i] = corpus[i].quality
	}
	qualityMetrics(qs, o.values)
	// Every timed output matched its oracle digest, so the code served
	// is exactly the pref-full answer.
	o.values["served_cycles_ratio"] = 1
	o.values["peak_rss_mb"] = peakRSSMB(0)
	o.values["setup_s"] = setup.Seconds()
	return o, nil
}

// simulateSLO returns the highest ladder rate at which servers
// servers, fed Poisson arrivals whose service times are drawn
// uniformly from serviceMS and serving them first come first served,
// keep the p99 of queue wait plus service within sloLimitMS. The climb
// stops at the first failing step.
func simulateSLO(serviceMS []float64, servers int, rng *rand.Rand) float64 {
	const arrivals = 20000
	svc := make([]float64, arrivals)
	gaps := make([]float64, arrivals) // unit-rate exponential gaps
	for n := range svc {
		svc[n] = serviceMS[rng.Intn(len(serviceMS))]
		gaps[n] = rng.ExpFloat64()
	}
	meanSvc := stat.Mean(svc)
	sojourn := make([]float64, arrivals)
	free := make([]float64, servers) // when each server is next idle
	best := 0.0
	for i := 0; ; i++ {
		rate := ladder(i)
		meanGap := 1000 / rate
		if meanSvc >= meanGap*float64(servers) {
			return best
		}
		clear(free)
		t := 0.0
		for n, s := range svc {
			k := 0
			for j := range free {
				if free[j] < free[k] {
					k = j
				}
			}
			free[k] = math.Max(t, free[k]) + s
			sojourn[n] = free[k] - t
			t += gaps[n] * meanGap
		}
		if stat.Percentile(sojourn, 99) > sloLimitMS {
			return best
		}
		best = rate
	}
}

// compileLayers accumulates the traced compile passes' per-function
// counters.
type compileLayers struct {
	funcs, rounds   int
	webs            int
	bytes, gcs      uint64
	selectSpills    int64
	honored, broken int64
}

// probeScratch is the warm scratch the round-1 probes reuse, as the
// driver reuses its workspace, so they time the steady state.
type probeScratch struct {
	renumber ig.RenumberScratch
	live     liveness.Scratch
	ws       regalloc.Workspace
}

// timedAllocator wraps the allocator under test to time each round's
// Allocate call and capture the program's telemetry around it. Name
// passes through, so digests are unchanged.
type timedAllocator struct {
	inner  regalloc.Allocator
	rounds []roundSample
}

type roundSample struct {
	start, end    time.Time
	before, after telemetry.Snapshot
	webs          int
}

func (a *timedAllocator) Name() string { return a.inner.Name() }

func (a *timedAllocator) Allocate(ctx *regalloc.Context) (*regalloc.Result, error) {
	r := roundSample{before: *ctx.Telemetry.Snapshot(), webs: ctx.Graph.NumWebs()}
	r.start = time.Now()
	res, err := a.inner.Allocate(ctx)
	r.end = time.Now()
	r.after = *ctx.Telemetry.Snapshot()
	a.rounds = append(a.rounds, r)
	return res, err
}

// tracedRun allocates f the way the untraced passes do, plus the
// outside probes on its round-1 input, recording spans: a
// regalloc.Run root holding each round's telemetry-timed renumber,
// build and spill phases and the timed core.allocate call (itself
// split into the core phases), and a separate probe operation timing
// ig.RenumberInto, liveness.ComputeInto and regalloc.NewContextIn.
func (l *compileLayers) tracedRun(tr *Tracer, f *ir.Func, m *target.Machine, ws *regalloc.Workspace, ps *probeScratch) (*ir.Func, *regalloc.Stats, time.Duration, error) {
	probe := tr.NewOp()
	c := f.Clone()
	t0 := time.Now()
	_, err := ig.RenumberInto(c, &ps.renumber)
	t1 := time.Now()
	if err != nil {
		return nil, nil, 0, err
	}
	liveness.ComputeInto(c, &ps.live)
	t2 := time.Now()
	if _, err := regalloc.NewContextIn(&ps.ws, c, m, nil); err != nil {
		return nil, nil, 0, err
	}
	t3 := time.Now()
	root := tr.Add(probe, 0, "probe.round1", tr.At(t0), tr.At(t3), "timed")
	tr.Add(probe, root, "ig.renumber", tr.At(t0), tr.At(t1), "timed")
	tr.Add(probe, root, "liveness.compute", tr.At(t1), tr.At(t2), "timed")
	tr.Add(probe, root, "ig.build", tr.At(t2), tr.At(t3), "timed")

	op := tr.NewOp()
	alloc := &timedAllocator{inner: core.New()}
	start := time.Now()
	out, st, err := regalloc.Run(f, m, alloc, regalloc.Options{Workspace: ws, CollectTelemetry: true})
	end := time.Now()
	d := end.Sub(start)
	if err != nil {
		return nil, nil, d, err
	}
	run := tr.Add(op, 0, "regalloc.Run", tr.At(start), tr.At(end), "timed")
	var prev telemetry.Snapshot
	for i, r := range alloc.rounds {
		ren := r.before.Phases[telemetry.PhaseRenumber].Wall - prev.Phases[telemetry.PhaseRenumber].Wall
		build := r.before.Phases[telemetry.PhaseBuildIG].Wall - prev.Phases[telemetry.PhaseBuildIG].Wall
		spill := r.before.Phases[telemetry.PhaseSpill].Wall - prev.Phases[telemetry.PhaseSpill].Wall
		a0 := tr.At(r.start)
		// Spill insertion ends the previous round, right before this
		// round's renumber and build.
		pre := a0 - int64(build+ren+spill)
		if i > 0 {
			tr.Add(op, run, "regalloc.spill", pre, pre+int64(spill), "telemetry")
		}
		tr.Seq(op, run, pre+int64(spill), []string{"ig.renumber.round", "ig.build.round"},
			[]time.Duration{ren, build}, "telemetry")
		ca := tr.Add(op, run, "core.allocate", a0, tr.At(r.end), "timed")
		names := []string{"core.rpg", "core.simplify", "core.cpg", "core.select", "core.recolor"}
		phases := []telemetry.Phase{telemetry.PhaseRPG, telemetry.PhaseSimplify, telemetry.PhaseCPG,
			telemetry.PhaseSelect, telemetry.PhaseRecolor}
		durs := make([]time.Duration, len(phases))
		for k, p := range phases {
			durs[k] = r.after.Phases[p].Wall - r.before.Phases[p].Wall
		}
		tr.Seq(op, ca, a0, names, durs, "telemetry")
		prev = r.after
		l.webs += r.webs
	}
	l.funcs++
	l.rounds += st.Rounds
	tel := st.Telemetry
	l.bytes += tel.BytesAllocated
	l.gcs += tel.GCCycles
	l.selectSpills += tel.SelectSpills
	for c := range tel.Prefs {
		l.honored += tel.Prefs[c][telemetry.Honored]
		l.broken += tel.Prefs[c][telemetry.Broken]
	}
	return out, st, d, nil
}

// report turns the traced passes into the per-layer metrics: mean
// milliseconds per function for every span name, with regalloc.Run's
// own self time reported as regalloc.other_ms.
func (l *compileLayers) report(tr *Tracer, vals map[string]float64) {
	self, _ := tr.SelfTimes()
	per := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(l.funcs) }
	vals["ig.renumber_ms"] = per(tr.Total("ig.renumber"))
	vals["liveness.compute_ms"] = per(tr.Total("liveness.compute"))
	vals["ig.build_ms"] = per(tr.Total("ig.build"))
	vals["core.allocate_ms"] = per(tr.Total("core.allocate"))
	for _, n := range []string{"rpg", "simplify", "cpg", "select", "recolor"} {
		vals["core."+n+"_ms"] = per(tr.Total("core." + n))
	}
	vals["regalloc.spill_ms"] = per(tr.Total("regalloc.spill"))
	vals["regalloc.other_ms"] = per(self["regalloc.Run"])
	vals["regalloc.rounds_per_func"] = float64(l.rounds) / float64(l.funcs)
	vals["regalloc.alloc_bytes_per_func"] = float64(l.bytes) / float64(l.funcs)
	vals["regalloc.gc_cycles"] = float64(l.gcs) / float64(l.funcs)
	vals["ig.webs_per_round"] = float64(l.webs) / float64(l.rounds)
	vals["core.prefs_honoured_share"] = float64(l.honored) / float64(l.honored+l.broken)
	vals["core.select_spills"] = float64(l.selectSpills) / float64(l.funcs)
}

// add accumulates another allocation's counters.
func (l *compileLayers) add(o *compileLayers) {
	l.funcs += o.funcs
	l.rounds += o.rounds
	l.webs += o.webs
	l.bytes += o.bytes
	l.gcs += o.gcs
	l.selectSpills += o.selectSpills
	l.honored += o.honored
	l.broken += o.broken
}
