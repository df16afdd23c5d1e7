package main

import (
	"sort"
	"strings"
	"time"

	"prefcolor/internal/ir"
	"prefcolor/internal/linearscan"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/server"
	"prefcolor/perfbench/stat"
)

// replayCost is what one request body costs in each layer, measured by
// re-running the layer in-process on that body (median of replays).
type replayCost struct {
	decode          time.Duration // ir.Parse or ir.DecodeBinary
	keyHit, keyMiss time.Duration // KeyResolver on a memo hit / miss
	fast            time.Duration // linearscan.Run
	run             *Tracer       // spans of one traced regalloc.Run
	runOp           int64
	lay             compileLayers
}

// medianTime runs fn reps times and returns the median duration.
func medianTime(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(stat.Median(ds))
}

const replays = 5

func measureReplay(it *poolItem, binary, tier bool, ws *regalloc.Workspace, lws *linearscan.Workspace, ps *probeScratch) *replayCost {
	k := &replayCost{}
	decode := func() { _, _ = ir.Parse(it.text) } // the pool parsed it once already
	resolve := func(kr *server.KeyResolver) { _, _, _ = kr.ResolveText(it.text) }
	if binary {
		decode = func() { _, _ = ir.DecodeBinary(it.bin) }
		resolve = func(kr *server.KeyResolver) { _, _, _ = kr.ResolveBinary(it.bin) }
	}
	k.decode = medianTime(replays, decode)
	if tier {
		k.keyMiss = medianTime(replays, func() { resolve(server.NewKeyResolver(0)) })
		memo := server.NewKeyResolver(1)
		resolve(memo)
		k.keyHit = medianTime(replays, func() { resolve(memo) })
		k.fast = medianTime(replays, func() {
			_, _, _ = linearscan.Run(it.f, it.m, linearscan.RunOptions{Workspace: lws})
		})
		return k
	}
	// Keep the replay whose Run took the median time.
	type try struct {
		tr  *Tracer
		lay compileLayers
		d   time.Duration
	}
	tries := make([]try, replays)
	for i := range tries {
		tr := newTracer()
		var lay compileLayers
		_, _, d, _ := lay.tracedRun(tr, it.f, it.m, ws, ps) // the oracle already ran it cleanly
		tries[i] = try{tr, lay, d}
	}
	sort.Slice(tries, func(i, j int) bool { return tries[i].d < tries[j].d })
	mid := tries[len(tries)/2]
	k.run, k.lay = mid.tr, mid.lay
	k.runOp = 2 // tracedRun records the round-1 probe first, then the Run
	return k
}

// replay attributes each traced request's time to layers: a
// server.request span from the request's due time to its answer,
// holding the replayed layer spans from the moment a connection took
// it. What the replayed layers do not cover — HTTP, JSON, queue wait,
// encoding and anything slower in the daemon than in the replay — is
// the request span's self time, reported as server.unattributed_ms.
// The background upgrades of serve-tier-hot are off the request path;
// their layers come from the daemon's own telemetry on /metrics.
func (s *serveRun) replay(sched []call, res []callResult, ok []int, delta map[string]float64) {
	tier := s.cfg.workload == "serve-tier-hot"
	ws := regalloc.NewWorkspace()
	lws := linearscan.NewFastWorkspace()
	var ps probeScratch
	costs := map[[2]int]*replayCost{}
	tr := newTracer()
	var lay compileLayers
	nText, nBin := 0, 0
	for _, i := range ok {
		c, r := sched[i], &res[i]
		key := [2]int{c.item, boolInt(c.binary)}
		k := costs[key]
		if k == nil {
			k = measureReplay(&s.pool[c.item], c.binary, tier, ws, lws, &ps)
			costs[key] = k
		}
		decodeName := "ir.parse"
		if c.binary {
			decodeName = "ir.decode"
			nBin++
		} else {
			nText++
		}
		op := tr.NewOp()
		root := tr.Add(op, 0, "server.request", int64(c.due), int64(r.done), "timed")
		at := int64(r.sent)
		// A replayed layer is clipped to the request's answer: the
		// replay cannot claim more time than the request took.
		add := func(name string, d time.Duration) {
			tr.Add(op, root, name, min(at, int64(r.done)), min(at+int64(d), int64(r.done)), "replay")
			at += int64(d)
		}
		if !tier {
			add(decodeName, k.decode)
			tr.Graft(k.run, k.runOp, op, root, at, int64(r.done))
			lay.add(&k.lay)
			continue
		}
		// A body missing from the daemon's raw-bytes key memo parses
		// there; one the memo holds hashes only, and a cache miss then
		// decodes in the fast path.
		if r.memoMiss {
			add("server.key", k.keyMiss)
		} else {
			add("server.key", k.keyHit)
		}
		if !r.reply.Cached {
			if !r.memoMiss {
				add(decodeName, k.decode)
			}
			add("linearscan.run", k.fast)
		}
	}

	vals := s.o.values
	n := float64(len(ok))
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	self, _ := tr.SelfTimes()
	vals["server.unattributed_ms"] = ms(self["server.request"]) / n
	vals["server.key_ms"] = ms(tr.Total("server.key")) / n
	vals["linearscan.run_ms"] = ms(tr.Total("linearscan.run")) / n
	vals["ir.parse_ms"] = ms(tr.Total("ir.parse")) / max(1, float64(nText))
	vals["ir.decode_ms"] = ms(tr.Total("ir.decode")) / max(1, float64(nBin))
	if !tier {
		lay.report(tr, vals)
	} else {
		upgradeLayers(delta, vals)
	}
	s.o.tracer = tr
}

// upgradeLayers reads the allocator layers of the tier upgrades from
// the daemon's telemetry counters: per full-tier allocation, the phase
// timers and counters it merged into /metrics during the traced phase.
// The Run total, the round-1 probes and the web counts are not visible
// from outside the daemon and read 0.
func upgradeLayers(delta map[string]float64, vals map[string]float64) {
	funcs := delta["prefgcd_alloc_functions_total"]
	phase := func(name string) float64 {
		return 1000 * ratio(delta[`prefgcd_alloc_phase_wall_seconds{phase="`+name+`"}`], funcs)
	}
	core := 0.0
	for _, p := range []string{"rpg", "simplify", "cpg", "select", "recolor"} {
		vals["core."+p+"_ms"] = phase(p)
		core += phase(p)
	}
	vals["core.allocate_ms"] = core
	vals["ig.renumber_ms"] = phase("renumber")
	vals["ig.build_ms"] = phase("build-ig")
	vals["regalloc.spill_ms"] = phase("spill")
	vals["regalloc.rounds_per_func"] = ratio(delta["prefgcd_alloc_rounds_total"], funcs)
	vals["regalloc.alloc_bytes_per_func"] = ratio(delta["prefgcd_alloc_heap_bytes_total"], funcs)
	vals["regalloc.gc_cycles"] = ratio(delta["prefgcd_alloc_gc_cycles_total"], funcs)
	vals["core.select_spills"] = ratio(delta["prefgcd_alloc_select_spills_total"], funcs)
	var honored, broken float64
	for k, v := range delta {
		if !strings.HasPrefix(k, "prefgcd_alloc_prefs_total{") {
			continue
		}
		switch {
		case strings.HasSuffix(k, `outcome="honored"}`):
			honored += v
		case strings.HasSuffix(k, `outcome="broken"}`):
			broken += v
		}
	}
	vals["core.prefs_honoured_share"] = ratio(honored, honored+broken)
	for _, name := range []string{"regalloc.other_ms", "liveness.compute_ms", "ig.webs_per_round"} {
		vals[name] = 0
	}
}
