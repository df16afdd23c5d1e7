// Package linearscan is the fast-tier register allocator: a
// linear-scan allocation over conservative live-interval hulls, built
// from the liveness package's per-block bit rows — the one liveness
// solution every consumer reads.
//
// Where the preference-directed allocator builds a precedence graph
// and runs a global selection loop, this allocator flattens the
// function into one linear position sequence (blocks in layout order)
// and gives every web a single interval — the hull from its first to
// its last program point. A block's live-in covers the block start, a
// block's live-out covers the block end, and every def or use covers
// its own instruction, so two webs whose hulls are disjoint can never
// interfere: any Chaitin interference (a def with the other web live
// after it) puts the defining position inside both hulls. Hull
// overlap is therefore a conservative superset of interference, and a
// hull-disjoint assignment passes the same CheckResult oracle every
// other allocator answers to. Interference against physical registers
// (call clobbers, explicit phys operands) is not approximated at all:
// the allocator probes the interference graph's exact
// phys-versus-web edges when picking a register.
//
// The package has two faces over one scan core. Alloc plugs into the
// standard regalloc driver — renumbered webs, full analyses, the
// per-round CheckResult and the RunChecked oracle — and is how the
// harness, the metamorphic matrix, and the figures run the algorithm.
// Run is the serving fast path: it skips web renumbering (a register
// is its own web; the hull of a register covers every web it carries,
// so hull disjointness is still a superset of interference) and never
// builds an interference graph, deriving the exact phys-versus-web
// conflicts in one backward walk instead. That removes the two
// dominant per-round analyses and is what makes the daemon's fast
// tier several times cheaper than any driver-based allocation.
//
// The price of the hull approximation is quality — webs that are
// live in disjoint regions still conflict, and no coalescing is
// attempted beyond a cheap move-preference when several registers are
// free — which is exactly the trade a serving tier makes: the daemon
// returns this allocation inside the request deadline and upgrades
// the cache entry with the pref-full result in the background.
package linearscan

import (
	"fmt"
	"sort"

	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/liveness"
	"prefcolor/internal/regalloc"
)

// Alloc is the linear-scan allocator. The zero value is ready; New is
// the conventional constructor.
type Alloc struct{}

// New returns a linear-scan allocator.
func New() *Alloc { return &Alloc{} }

// Name identifies the algorithm in stats and figures.
func (*Alloc) Name() string { return "linearscan" }

// scratch is the per-round working state, parked on the workspace so
// steady-state rounds reuse the slices.
type scratch struct {
	start, end []int32 // interval hull per web; start < 0 = never seen
	order      []int32 // web indices sorted by interval start
	color      []int32 // assigned register per web; -1 = none yet
	active     []activeInterval
	regOwner   []int32 // active web holding each register; -1 = free
}

type activeInterval struct {
	web int32
	end int32
	reg int32
}

func scratchFor(ws *regalloc.Workspace) *scratch {
	if ws != nil {
		if s, ok := ws.AllocatorScratch().(*scratch); ok {
			return s
		}
	}
	s := &scratch{}
	if ws != nil {
		ws.SetAllocatorScratch(s)
	}
	return s
}

func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		s = make([]int32, n)
	}
	return s[:n]
}

// reset sizes the scratch for nw webs and k registers and clears it.
func (s *scratch) reset(nw, k int) {
	s.start = grow32(s.start, nw)
	s.end = grow32(s.end, nw)
	s.color = grow32(s.color, nw)
	s.order = grow32(s.order, nw)
	s.regOwner = grow32(s.regOwner, k)
	s.active = s.active[:0]
	for w := 0; w < nw; w++ {
		s.start[w], s.end[w], s.color[w] = -1, -1, -1
		s.order[w] = int32(w)
	}
	for r := 0; r < k; r++ {
		s.regOwner[r] = -1
	}
}

// buildHulls computes the interval hulls in one forward walk and
// sorts the scan order. Positions number block boundaries and
// instructions consecutively in layout order; the block-start
// position carries the live-in set and the block-end position the
// live-out set, so liveness spanning a block edge always lands inside
// both hulls. Webs never touched (dead parameters) keep start -1 and
// sort first.
func (s *scratch) buildHulls(f *ir.Func, live *liveness.Info) {
	touch := func(w int, p int32) {
		if s.start[w] < 0 {
			s.start[w], s.end[w] = p, p
			return
		}
		if p < s.start[w] {
			s.start[w] = p
		}
		if p > s.end[w] {
			s.end[w] = p
		}
	}
	pos := int32(0)
	for _, b := range f.Blocks {
		liveness.ForEachVirt(live.LiveIn(b.ID), func(w int) { touch(w, pos) })
		for i := range b.Instrs {
			pos++
			in := &b.Instrs[i]
			for _, u := range in.Uses {
				if u.IsVirt() {
					touch(u.VirtNum(), pos)
				}
			}
			for _, d := range in.Defs {
				if d.IsVirt() {
					touch(d.VirtNum(), pos)
				}
			}
		}
		pos++
		liveness.ForEachVirt(live.LiveOut(b.ID), func(w int) { touch(w, pos) })
		pos++
	}

	s.sortOrder()
}

// sortOrder sorts the scan order by (start, end, web).
func (s *scratch) sortOrder() {
	order := s.order
	sort.Slice(order, func(i, j int) bool {
		wi, wj := order[i], order[j]
		if s.start[wi] != s.start[wj] {
			return s.start[wi] < s.start[wj]
		}
		if s.end[wi] != s.end[wj] {
			return s.end[wi] < s.end[wj]
		}
		return wi < wj
	})
}

// scanOps parameterizes the scan over its environment: the driver
// face answers allowed/preferred from the interference graph and
// records into a regalloc.Result; the fast path answers from its
// forbid masks and records into a dense color table.
type scanOps struct {
	// allowed reports whether web w may sit in register r (no
	// phys-versus-web conflict).
	allowed func(w, r int32) bool
	// preferred returns a register whose use would eliminate a copy
	// involving w, or -1. The scan honors it only when it is free and
	// allowed.
	preferred func(w int32) int32
	// spillTemp reports whether w is allocator-created spill traffic,
	// which must never spill again.
	spillTemp func(w int32) bool
	// assign and unassign mirror color decisions outward; spill
	// records that w's live range gets spill code this round.
	assign   func(w, r int32)
	unassign func(w int32)
	spill    func(w int32)
}

// scan colors the sorted interval hulls in one pass: expire, then
// take a free non-conflicting register (preferring a move partner's),
// else spill the furthest-ending finite-cost interval among the
// current one and the active ones whose register the current web may
// use. Spill temporaries are never spilled; a stranded temporary
// evicts a finite-cost neighbor instead.
func (s *scratch) scan(k int, ops scanOps) error {
	assign := func(w, r int32) {
		s.color[w] = r
		ops.assign(w, r)
	}
	for _, w := range s.order {
		cur := s.start[w]
		if cur < 0 {
			// Dead web: no program point, no interference. Any
			// phys-compatible register will do (and no phys edges can
			// exist for a web never seen live, so register 0 is always
			// legal; probe anyway for symmetry).
			for r := int32(0); r < int32(k); r++ {
				if ops.allowed(w, r) {
					assign(w, r)
					break
				}
			}
			if s.color[w] < 0 {
				return fmt.Errorf("linearscan: dead web v%d conflicts with every register", w)
			}
			continue
		}

		// Expire intervals that ended before this one starts.
		live := s.active[:0]
		for _, ai := range s.active {
			if ai.end < cur {
				s.regOwner[ai.reg] = -1
				continue
			}
			live = append(live, ai)
		}
		s.active = live

		// Free, phys-compatible register? Prefer a move partner's.
		pick := int32(-1)
		if p := ops.preferred(w); p >= 0 && p < int32(k) && s.regOwner[p] < 0 && ops.allowed(w, p) {
			pick = p
		} else {
			for r := int32(0); r < int32(k); r++ {
				if s.regOwner[r] < 0 && ops.allowed(w, r) {
					pick = r
					break
				}
			}
		}
		if pick >= 0 {
			assign(w, pick)
			s.regOwner[pick] = w
			s.active = append(s.active, activeInterval{web: w, end: s.end[w], reg: pick})
			continue
		}

		// No register: spill the furthest-ending finite-cost interval
		// among this one and the active holders of registers this web
		// may use. A spill temporary is never a candidate — the spill
		// code that created it must keep its register.
		victim := -1 // index into s.active; -1 = spill w itself
		bestEnd := int32(-1)
		if !ops.spillTemp(w) {
			bestEnd = s.end[w]
		}
		for i, ai := range s.active {
			if ops.spillTemp(ai.web) || !ops.allowed(w, ai.reg) {
				continue
			}
			if ai.end > bestEnd {
				victim, bestEnd = i, ai.end
			}
		}
		if bestEnd < 0 {
			return fmt.Errorf(
				"linearscan: spill temporary v%d stranded: every compatible register is held by another temporary", w)
		}
		if victim < 0 {
			ops.spill(w)
			continue
		}
		v := s.active[victim]
		s.color[v.web] = -1
		ops.unassign(v.web)
		ops.spill(v.web)
		assign(w, v.reg)
		s.regOwner[v.reg] = w
		s.active[victim] = activeInterval{web: w, end: s.end[w], reg: v.reg}
	}
	return nil
}

// Allocate colors ctx.Graph by one scan over the interval hulls,
// answering phys-conflict and move-preference queries from the
// round's interference graph.
func (a *Alloc) Allocate(ctx *regalloc.Context) (*regalloc.Result, error) {
	g := ctx.Graph
	f := ctx.F
	nw := f.NumVirt
	k := ctx.K()
	res := regalloc.NewResult()
	if nw == 0 {
		return res, nil
	}

	s := scratchFor(ctx.Workspace)
	s.reset(nw, k)
	s.buildHulls(f, ctx.Live)

	node := func(w int32) ig.NodeID { return ig.NodeID(g.NumPhys() + int(w)) }
	ops := scanOps{
		allowed: func(w, r int32) bool {
			return !g.OrigInterferes(node(w), ig.NodeID(r))
		},
		// preferred returns the register of the heaviest move partner
		// already resolved to a color (a physical endpoint or an
		// earlier-scanned web), or -1. Honoring it when it happens to
		// be free removes the copy at zero cost.
		preferred: func(w int32) int32 {
			best, bestWeight := int32(-1), 0.0
			n := node(w)
			for _, mi := range g.NodeMoves(n) {
				m := g.Moves()[mi]
				other := m.X
				if other == n {
					other = m.Y
				}
				var c int32
				switch {
				case g.IsPhys(other):
					c = int32(g.PhysColor(other))
				case s.color[int(other)-g.NumPhys()] >= 0:
					c = s.color[int(other)-g.NumPhys()]
				default:
					continue
				}
				if m.Weight > bestWeight {
					best, bestWeight = c, m.Weight
				}
			}
			return best
		},
		spillTemp: func(w int32) bool { return ctx.SpillTemp[w] },
		assign:    func(w, r int32) { res.Colors[node(w)] = int(r) },
		unassign:  func(w int32) { delete(res.Colors, node(w)) },
		spill:     func(w int32) { res.Spilled = append(res.Spilled, node(w)) },
	}
	if err := s.scan(k, ops); err != nil {
		return nil, err
	}
	return res, nil
}
