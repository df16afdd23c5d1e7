package linearscan

import (
	"fmt"
	"math/bits"

	"prefcolor/internal/ir"
	"prefcolor/internal/liveness"
	"prefcolor/internal/regalloc"
	buf "prefcolor/internal/scratch"
	"prefcolor/internal/target"
)

// This file is the serving fast path: a self-contained driver loop
// that allocates with the same interval-hull scan as the Alloc
// adapter but skips the analyses that dominate driver latency.
//
//   - No web renumbering. A virtual register is its own web, so a
//     register's hull covers every live range it carries. Coarser
//     webs can only widen hulls, and hull disjointness stays a
//     superset of non-interference — the assignment is still valid,
//     it just spills more than the renumbered adapter would.
//   - No interference graph. The scan needs web-versus-web conflicts
//     (answered by hull overlap) and exact web-versus-phys conflicts.
//     The latter are Chaitin's rules restricted to mixed pairs — a
//     def conflicts with everything live after it, values live
//     across a call conflict with the volatile registers, and the
//     entry point defines everything live into it — which one
//     backward walk over the liveness solution collects into a
//     per-register forbidden-set bitmask.
//   - One backward walk. The hulls, conflict masks, and copy
//     partners all fall out of a single walk over the liveness
//     package's dense rows, the same solution every other consumer
//     reads.
//   - No caller-save scan. The clobber masks forbid volatile
//     registers to every value live across a call, so the rewrite
//     can never need a save — it passes a nil liveness to
//     regalloc.RewriteColored, which skips the scan.
//
// Spill rounds reuse the driver's spill-everywhere inserter and the
// final round reuses the driver's rewrite (phys mapping,
// redundant-copy deletion, validation), so the output is well-formed
// by the same code paths every other allocator exits through.

// RunOptions configures the fast-path driver loop.
type RunOptions struct {
	// MaxRounds bounds the spill-and-retry loop; 0 means 16.
	MaxRounds int

	// Validate cross-checks every round's assignment against a
	// freshly built interference graph (the same CheckResult the
	// standard driver runs). It exists for tests and paranoid
	// callers; it rebuilds per round the very analyses the fast path
	// is designed to skip.
	Validate bool

	// Workspace, when non-nil, supplies reusable buffers across Run
	// calls. A workspace serves one Run at a time; reuse is
	// observationally pure.
	Workspace *Workspace
}

// Workspace is the fast path's scratch arena: the liveness solution,
// the scan state, the forbidden-set masks, and the spill bookkeeping,
// reused across rounds and across Run calls.
type Workspace struct {
	s    scratch
	live liveness.Scratch

	forbid   []uint64   // per web, pw words of forbidden registers
	livePhys []uint64   // backward-walk live physical registers
	liveVirt []uint64   // backward-walk live virtual registers
	partners [][]ir.Reg // per web, copy partners in reverse order
	colors   []int
	spilled  []int
	temp     []bool // spill temporaries, by register number
}

// NewFastWorkspace returns an empty fast-path workspace. The zero
// value also works.
func NewFastWorkspace() *Workspace { return &Workspace{} }

// Run allocates registers for input on machine m through the fast
// path and returns the rewritten function and statistics, exactly
// like regalloc.Run but without renumbering or graph construction.
// The input function is not modified.
func Run(input *ir.Func, m *target.Machine, opts RunOptions) (*ir.Func, *regalloc.Stats, error) {
	if err := regalloc.ValidateInput(input, m); err != nil {
		return nil, nil, err
	}
	var phiErr error
	input.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
		if phiErr == nil && in.Op == ir.Phi {
			phiErr = fmt.Errorf("linearscan: b%d[%d]: φ-functions must be lowered first", b.ID, i)
		}
	})
	if phiErr != nil {
		return nil, nil, phiErr
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 16
	}
	ws := opts.Workspace
	if ws == nil {
		ws = NewFastWorkspace()
	}

	f := input.Clone()
	stats := &regalloc.Stats{
		Allocator:   "linearscan",
		MovesBefore: f.CountOp(ir.Move),
	}
	k := m.NumRegs
	pw := (k + 63) / 64
	volMask := make([]uint64, pw)
	for _, v := range m.VolatileRegs() {
		volMask[v>>6] |= 1 << (uint(v) & 63)
	}

	ws.temp = ws.temp[:0]
	for round := 1; round <= maxRounds; round++ {
		stats.Rounds = round
		nw := f.NumVirt
		for len(ws.temp) < nw {
			ws.temp = append(ws.temp, false)
		}
		s := &ws.s
		s.reset(nw, k)
		ws.prepare(f, liveness.ComputeInto(f, &ws.live), nw, pw, volMask)
		s.sortOrder()

		ws.colors = buf.Fill(ws.colors, nw, -1)
		ws.spilled = ws.spilled[:0]
		ops := scanOps{
			allowed: func(w, r int32) bool {
				return ws.forbid[int(w)*pw+int(r>>6)]&(1<<(uint(r)&63)) == 0
			},
			// preferred probes the copy partners for a register that
			// is already resolved, free, and compatible; partner
			// order (reverse program order) breaks ties.
			preferred: func(w int32) int32 {
				for _, p := range ws.partners[w] {
					var c int32
					switch {
					case p.IsPhys():
						c = int32(p.PhysNum())
					case ws.colors[p.VirtNum()] >= 0:
						c = int32(ws.colors[p.VirtNum()])
					default:
						continue
					}
					if s.regOwner[c] < 0 && ws.forbid[int(w)*pw+int(c>>6)]&(1<<(uint(c)&63)) == 0 {
						return c
					}
				}
				return -1
			},
			spillTemp: func(w int32) bool { return ws.temp[w] },
			assign:    func(w, r int32) { ws.colors[w] = int(r) },
			unassign:  func(w int32) { ws.colors[w] = -1 },
			spill:     func(w int32) { ws.spilled = append(ws.spilled, int(w)) },
		}
		if err := s.scan(k, ops); err != nil {
			return nil, nil, err
		}
		if opts.Validate {
			if err := checkRound(f, m, ws.colors, ws.spilled, ws.temp); err != nil {
				return nil, nil, fmt.Errorf("linearscan: round %d: %w", round, err)
			}
		}
		if len(ws.spilled) == 0 {
			out, err := regalloc.RewriteColored(f, m, nil, ws.colors, stats)
			if err != nil {
				return nil, nil, err
			}
			return out, stats, nil
		}
		stats.SpilledWebs += len(ws.spilled)
		temps := regalloc.InsertSpillEverywhere(f, ws.spilled)
		temps = append(temps, splitSpilledDefs(f, ws.spilled)...)
		for _, t := range temps {
			for len(ws.temp) < f.NumVirt {
				ws.temp = append(ws.temp, false)
			}
			ws.temp[t.VirtNum()] = true
		}
	}
	return nil, nil, fmt.Errorf("linearscan: did not converge in %d rounds", maxRounds)
}

// prepare derives everything the scan needs from the liveness
// solution in one backward walk per block: the interval hulls (block
// boundaries carry the live-in/live-out sets, each def or use covers
// its own position), the exact phys-versus-web conflict masks
// (mirroring the graph builder's Chaitin rules for mixed pairs: the
// entry clique, defs against everything live after them minus the
// copy-source exception, call clobbers against everything live
// across the call), and each web's copy partners.
//
// The walk keeps virtual and physical registers in separate rows so
// each conflict rule iterates exactly the kind it needs. The virtual
// row is a liveness row's virtual half verbatim; the physical row is
// indexed by machine register number, like the forbid and volatile
// masks and the scan itself, so loading it shifts the liveness row
// (physical register p at bit p+1) down one bit.
func (ws *Workspace) prepare(f *ir.Func, live *liveness.Info, nw, pw int, volMask []uint64) {
	s := &ws.s
	vw := (nw + 63) / 64
	ws.forbid = buf.Slice(ws.forbid, nw*pw)
	ws.livePhys = buf.Slice(ws.livePhys, pw)
	ws.liveVirt = buf.Slice(ws.liveVirt, vw)
	ws.partners = buf.Rows(ws.partners, nw)

	forbidRow := func(w int) []uint64 { return ws.forbid[w*pw : (w+1)*pw] }
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
	// eachLiveVirt visits the live virtual registers, skipping skip
	// (-1 skips nothing).
	eachLiveVirt := func(skip int, fn func(v int)) {
		for wi, wbits := range ws.liveVirt {
			for t := wbits; t != 0; t &= t - 1 {
				v := wi<<6 + bits.TrailingZeros64(t)
				if v != skip {
					fn(v)
				}
			}
		}
	}
	touchLiveVirt := func(p int32) { eachLiveVirt(-1, func(v int) { touch(v, p) }) }

	// loadLive sets the walk rows to the liveness row src.
	loadLive := func(src []uint64) {
		copy(ws.liveVirt, liveness.VirtHalf(src))
		for j := range ws.livePhys {
			ws.livePhys[j] = src[j] >> 1
			if j+1 < int(ir.FirstVirtual)/64 {
				ws.livePhys[j] |= src[j+1] << 63
			}
		}
	}

	// Function entry defines every value live into it simultaneously:
	// each virtual member conflicts with each physical member.
	loadLive(live.LiveIn(0))
	anyPhys := false
	for _, m := range ws.livePhys {
		if m != 0 {
			anyPhys = true
		}
	}
	if anyPhys {
		eachLiveVirt(-1, func(v int) {
			row := forbidRow(v)
			for j, m := range ws.livePhys {
				row[j] |= m
			}
		})
	}

	pos := int32(0)
	for _, b := range f.Blocks {
		startPos := pos
		endPos := startPos + int32(len(b.Instrs)) + 1
		pos = endPos + 1

		loadLive(live.LiveOut(b.ID))
		touchLiveVirt(endPos)

		for idx := len(b.Instrs) - 1; idx >= 0; idx-- {
			in := &b.Instrs[idx]
			ipos := startPos + 1 + int32(idx)
			isCopy := in.IsCopy()
			for _, d := range in.Defs {
				if d.IsVirt() {
					row := forbidRow(d.VirtNum())
					// The copy-source exception skips adding that one
					// bit at this def event only; a conflict some
					// other def already established must survive, so
					// mask the addition rather than clearing the row.
					exclW, exclM := -1, uint64(0)
					if isCopy && in.Uses[0].IsPhys() {
						p := in.Uses[0].PhysNum()
						exclW, exclM = p>>6, 1<<(uint(p)&63)
					}
					for j, m := range ws.livePhys {
						if j == exclW {
							m &^= exclM
						}
						row[j] |= m
					}
				} else if d.IsPhys() {
					p := d.PhysNum()
					bitW, bitM := p>>6, uint64(1)<<(uint(p)&63)
					excl := -1
					if isCopy && in.Uses[0].IsVirt() {
						excl = in.Uses[0].VirtNum()
					}
					eachLiveVirt(excl, func(v int) {
						forbidRow(v)[bitW] |= bitM
					})
				}
			}
			if in.Op == ir.Call {
				defV := -1
				if d := in.Def(); d.IsVirt() {
					defV = d.VirtNum()
				}
				eachLiveVirt(defV, func(v int) {
					row := forbidRow(v)
					for j, m := range volMask {
						row[j] |= m
					}
				})
			}
			if isCopy {
				d, u := in.Defs[0], in.Uses[0]
				if d != u {
					if d.IsVirt() {
						ws.partners[d.VirtNum()] = append(ws.partners[d.VirtNum()], u)
					}
					if u.IsVirt() {
						ws.partners[u.VirtNum()] = append(ws.partners[u.VirtNum()], d)
					}
				}
			}
			for _, d := range in.Defs {
				if d.IsVirt() {
					v := d.VirtNum()
					ws.liveVirt[v>>6] &^= 1 << (uint(v) & 63)
					touch(v, ipos)
				} else if d.IsPhys() {
					p := d.PhysNum()
					ws.livePhys[p>>6] &^= 1 << (uint(p) & 63)
				}
			}
			for _, u := range in.Uses {
				if u.IsVirt() {
					v := u.VirtNum()
					ws.liveVirt[v>>6] |= 1 << (uint(v) & 63)
					touch(v, ipos)
				} else if u.IsPhys() {
					p := u.PhysNum()
					ws.livePhys[p>>6] |= 1 << (uint(p) & 63)
				}
			}
		}

		// The walk has stepped back to the block's live-in set.
		touchLiveVirt(startPos)
	}
}

// splitSpilledDefs gives each definition site of a spilled register
// its own fresh register. The spill inserter leaves every def of a
// spilled register followed immediately by its slot store, so without
// renumbering the register's hull would still span all of its defs —
// one function-wide unspillable interval, which strands the scan. The
// standard driver escapes this by renumbering the split ranges into
// separate webs; the fast path does the same surgically: rename each
// def and its adjacent store to a fresh temporary, leaving the
// original register at most its entry capture (parameters and
// upward-exposed entry values), a minimal interval at position zero.
// It returns the fresh temporaries.
func splitSpilledDefs(f *ir.Func, spilled []int) []ir.Reg {
	isSpilled := map[ir.Reg]bool{}
	for _, w := range spilled {
		isSpilled[ir.Virt(w)] = true
	}
	var temps []ir.Reg
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			d := in.Def()
			if !isSpilled[d] || in.Op == ir.SpillStore {
				continue
			}
			if i+1 >= len(b.Instrs) {
				continue
			}
			st := &b.Instrs[i+1]
			if st.Op != ir.SpillStore || len(st.Uses) != 1 || st.Uses[0] != d {
				continue
			}
			t := f.NewReg()
			temps = append(temps, t)
			in.Defs[0] = t
			st.Uses[0] = t
		}
	}
	return temps
}

// checkRound validates one fast-path round against a freshly built
// interference graph using the standard CheckResult, converting the
// dense color table into the driver's Result shape.
func checkRound(f *ir.Func, m *target.Machine, colors []int, spilled []int, temp []bool) error {
	spillTemp := make([]bool, f.NumVirt)
	copy(spillTemp, temp)
	ctx, err := regalloc.NewContext(f, m, spillTemp)
	if err != nil {
		return err
	}
	res := regalloc.NewResult()
	for w, c := range colors {
		if c >= 0 {
			res.Colors[ctx.Graph.NodeOf(ir.Virt(w))] = c
		}
	}
	for _, w := range spilled {
		res.Spilled = append(res.Spilled, ctx.Graph.NodeOf(ir.Virt(w)))
	}
	return regalloc.CheckResult(ctx, res)
}
