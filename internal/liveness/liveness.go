// Package liveness computes live-variable information over ir.Func by
// backward dataflow iteration.
//
// The solution is a set of dense bit rows indexed by the ir.Reg
// encoding: bit int(r) of a row is register r. NoReg is bit 0 and
// never set, physical register n is bit n+1, and virtual register n
// is bit FirstVirtual+n. FirstVirtual is a multiple of 64, so a row's
// virtual half (VirtHalf) is a plain subslice in which bit n is
// virtual register n. Every consumer reads these rows directly; there
// is no other live-set format.
//
// φ-functions get the standard SSA treatment: a φ's uses are live out
// of the corresponding predecessor block (not live into the φ's own
// block), and its definition happens at the block head.
package liveness

import (
	"math/bits"

	"prefcolor/internal/ir"
	"prefcolor/internal/scratch"
)

// virtWord is the first word of a row's virtual half.
const virtWord = int(ir.FirstVirtual) / 64

// Info holds the per-block live-in and live-out rows. An Info is not
// safe for concurrent use: ForEachInstrReverse reuses an internal row
// between calls.
type Info struct {
	words   int      // row length in words
	in, out []uint64 // one row per block, in block-ID order
	walk    []uint64 // reused by ForEachInstrReverse
}

// Scratch holds the buffers Compute needs, so repeated analyses (one
// per spill round, per function) reuse them instead of reallocating.
// The zero value is ready to use. A Scratch owns the *Info it returns:
// the Info and its rows are valid only until the next ComputeInto on
// the same Scratch, and a Scratch must not be shared between
// goroutines.
type Scratch struct {
	info     Info
	genBits  []uint64 // one row per block
	killBits []uint64
	phiBits  []uint64
	tmp      []uint64 // one row: the out set being merged
}

// Compute runs the backward dataflow to a fixed point and returns the
// per-block liveness information. Both virtual and physical registers
// are tracked; implicit call clobbers are not (they are interference
// facts, handled by the interference-graph builder).
func Compute(f *ir.Func) *Info { return ComputeInto(f, nil) }

// ComputeInto is Compute reusing ws's buffers. A nil ws behaves like
// Compute. The liveness equations have a unique least fixed point, so
// the result is identical no matter how the scratch sets are reused.
func ComputeInto(f *ir.Func, ws *Scratch) *Info {
	if ws == nil {
		ws = &Scratch{}
	}
	n := len(f.Blocks)
	// One bit per encodable register: NoReg and the physical range
	// below FirstVirtual, then f's virtuals.
	words := (int(ir.FirstVirtual) + f.NumVirt + 63) / 64
	info := &ws.info
	info.words = words
	info.in = scratch.Slice(info.in, n*words)
	info.out = scratch.Slice(info.out, n*words)
	info.walk = scratch.Slice(info.walk, words)
	ws.genBits = scratch.Slice(ws.genBits, n*words)
	ws.killBits = scratch.Slice(ws.killBits, n*words)
	ws.phiBits = scratch.Slice(ws.phiBits, n*words)
	ws.tmp = scratch.Slice(ws.tmp, words)

	// Precompute per-block gen (upward-exposed uses, φ excluded),
	// kill (all defs including φ), and the φ definitions at the block
	// head (consulted once per edge per iteration below). NoReg never
	// enters a row.
	for _, b := range f.Blocks {
		g := ws.genBits[int(b.ID)*words : (int(b.ID)+1)*words]
		k := ws.killBits[int(b.ID)*words : (int(b.ID)+1)*words]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.Phi {
				for _, d := range in.Defs {
					setBit(k, d)
				}
				continue
			}
			for _, u := range in.Uses {
				if !Has(k, u) {
					setBit(g, u)
				}
			}
			for _, d := range in.Defs {
				setBit(k, d)
			}
		}
		pd := ws.phiBits[int(b.ID)*words : (int(b.ID)+1)*words]
		for i := range b.Instrs {
			if b.Instrs[i].Op != ir.Phi {
				break
			}
			setBit(pd, b.Instrs[i].Def())
		}
	}

	out := ws.tmp
	changed := true
	for changed {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			clear(out)
			for _, sid := range b.Succs {
				s := f.Blocks[sid]
				// live-in of successor minus its φ defs...
				sIn := info.LiveIn(sid)
				pd := ws.phiBits[int(sid)*words : (int(sid)+1)*words]
				for w := range out {
					out[w] |= sIn[w] &^ pd[w]
				}
				// ...plus the φ arguments flowing along this edge.
				// A block can appear several times in Preds (e.g. a
				// branch with both targets equal); every matching
				// position contributes.
				for pi, p := range s.Preds {
					if p != b.ID {
						continue
					}
					for j := range s.Instrs {
						if s.Instrs[j].Op != ir.Phi {
							break
						}
						setBit(out, s.Instrs[j].Uses[pi])
					}
				}
			}
			// in = gen | (out &^ kill), written straight into the
			// block's row with change detection fused in.
			g := ws.genBits[int(b.ID)*words : (int(b.ID)+1)*words]
			k := ws.killBits[int(b.ID)*words : (int(b.ID)+1)*words]
			bin := info.LiveIn(b.ID)
			bout := info.LiveOut(b.ID)
			for w := range out {
				if bout[w] != out[w] {
					bout[w] = out[w]
					changed = true
				}
				if v := g[w] | out[w]&^k[w]; bin[w] != v {
					bin[w] = v
					changed = true
				}
			}
		}
	}
	return info
}

// setBit marks r in the row; NoReg is ignored.
func setBit(row []uint64, r ir.Reg) {
	if r != ir.NoReg {
		row[int(r)>>6] |= 1 << (uint(r) & 63)
	}
}

// Has reports whether register r is in row (NoReg never is).
func Has(row []uint64, r ir.Reg) bool {
	return row[int(r)>>6]&(1<<(uint(r)&63)) != 0
}

// VirtHalf returns the virtual half of row, in which bit n is virtual
// register n. It aliases row.
func VirtHalf(row []uint64) []uint64 { return row[virtWord:] }

// ForEach calls fn for every register in row, in increasing encoding
// order: physical registers first, then virtual ones.
func ForEach(row []uint64, fn func(r ir.Reg)) {
	for wi, w := range row {
		for ; w != 0; w &= w - 1 {
			fn(ir.Reg(wi<<6 + bits.TrailingZeros64(w)))
		}
	}
}

// ForEachVirt calls fn(n) for every virtual register ir.Virt(n) in
// row, in increasing order.
func ForEachVirt(row []uint64, fn func(n int)) {
	for wi, w := range VirtHalf(row) {
		for ; w != 0; w &= w - 1 {
			fn(wi<<6 + bits.TrailingZeros64(w))
		}
	}
}

// LiveIn returns the row of registers live at entry to b. φ
// definitions are not live-in (they are defined at the block head);
// φ uses are live-out of the corresponding predecessors. The row
// aliases the solution and must not be modified.
func (i *Info) LiveIn(b ir.BlockID) []uint64 { return i.in[int(b)*i.words:][:i.words] }

// LiveOut returns the row of registers live at exit from b. The row
// aliases the solution and must not be modified.
func (i *Info) LiveOut(b ir.BlockID) []uint64 { return i.out[int(b)*i.words:][:i.words] }

// ForEachInstrReverse walks block b backwards, maintaining the row of
// registers live *after* each instruction and calling fn(i, instr,
// liveAfter) from the last instruction to the first. φ-functions are
// visited too (their live-after is the set after all φs executed in
// parallel). The callback must not modify or retain liveAfter, which
// is reused between calls — including across calls to
// ForEachInstrReverse itself — and must not re-enter
// ForEachInstrReverse on the same Info.
func (i *Info) ForEachInstrReverse(b *ir.Block, fn func(idx int, in *ir.Instr, liveAfter []uint64)) {
	live := i.walk
	copy(live, i.LiveOut(b.ID))
	for idx := len(b.Instrs) - 1; idx >= 0; idx-- {
		in := &b.Instrs[idx]
		fn(idx, in, live)
		for _, d := range in.Defs {
			live[int(d)>>6] &^= 1 << (uint(d) & 63)
		}
		if in.Op != ir.Phi {
			for _, u := range in.Uses {
				setBit(live, u)
			}
		}
	}
}
