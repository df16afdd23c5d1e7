// Package ig implements the renumber phase (live-range construction
// via webs) and the Chaitin-style interference graph all allocators in
// this repository share.
package ig

import (
	"fmt"
	"math/bits"

	"prefcolor/internal/ir"
	"prefcolor/internal/scratch"
)

// RenumberScratch recycles the dense per-site and per-register tables
// Renumber builds, so the driver's round loop stops reallocating them.
// The zero value is ready. The *RenumberInfo returned by RenumberInto
// is owned by the scratch: it (and its Origins rows) are valid only
// until the next RenumberInto on the same scratch. Not safe for
// concurrent use.
type RenumberScratch struct {
	lo        []int32 // register v's definition sites are [lo[v], lo[v+1])
	next      []int32 // next definition site per register during a walk
	paramSite []int32 // parameter pseudo-definition site, -1 if none
	undefSite []int32 // shared site of a register's undefined uses, -1 if none

	// Reaching definitions as bit vectors over the definition sites,
	// one row of words per block: row b is [b*words, (b+1)*words).
	gen   []uint64 // last definition of each register the block defines
	kill  []uint64 // every site of each register the block defines
	out   []uint64
	entry []uint64 // parameter sites, merged into the entry block's in
	cur   []uint64

	webOf   []int32
	origins []ir.Reg // backing store of the Origins rows
	uf      unionFind
	info    RenumberInfo

	// Worklist scratch for the reaching-definitions fixpoint.
	worklist   []int32
	onWorklist []bool
}

// RenumberInfo records how Renumber mapped original virtual registers
// to webs.
type RenumberInfo struct {
	// NumWebs is the number of live ranges; the rewritten function
	// uses exactly the virtual registers Virt(0)..Virt(NumWebs-1).
	NumWebs int

	// Origins[w] lists the original virtual registers merged into web
	// w (deduplicated, in first-seen order). Most webs come from a
	// single original register; a register with several defs feeding
	// common uses produces one web from many sites, and a register
	// with disjoint def/use regions produces several webs.
	Origins [][]ir.Reg
}

// Renumber rewrites f in place so that every virtual register is one
// live range (a web): the maximal set of definitions and uses
// connected through du-chains, computed from reaching definitions with
// a union-find. This is the "renumber" phase of Chaitin's allocator.
//
// The function must be φ-free (run ssa.Destruct first); Renumber
// returns an error otherwise. Physical registers are left untouched.
func Renumber(f *ir.Func) (*RenumberInfo, error) { return RenumberInto(f, nil) }

// RenumberInto is Renumber reusing ws's tables; a nil ws behaves like
// Renumber. The site enumeration, dataflow schedule, and web numbering
// are identical either way, so the rewritten function and returned
// info do not depend on reuse.
func RenumberInto(f *ir.Func, ws *RenumberScratch) (*RenumberInfo, error) {
	if ws == nil {
		ws = &RenumberScratch{}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.Phi {
				return nil, fmt.Errorf("ig.Renumber: b%d:%d: φ-functions must be lowered first", b.ID, i)
			}
		}
	}

	// Enumerate definition sites register by register: register v owns
	// the contiguous range [lo[v], lo[v+1]), its parameter
	// pseudo-definition at entry first (if v is a parameter), then its
	// definitions in block/instruction order. Killing v is then clearing
	// one range, and v's reaching definitions are the set bits inside
	// it. Synthetic sites for uses with no reaching definition are
	// appended past the last range on demand.
	nv := f.NumVirt
	nb := len(f.Blocks)
	lo := scratch.Slice(ws.lo, nv+1)
	paramSite := scratch.Fill(ws.paramSite, nv, int32(-1))
	undefSite := scratch.Fill(ws.undefSite, nv, int32(-1))
	ws.lo, ws.paramSite, ws.undefSite = lo, paramSite, undefSite
	for _, p := range f.Params {
		if p.IsVirt() && paramSite[p.VirtNum()] < 0 {
			paramSite[p.VirtNum()] = 0 // placed at lo[v] below
			lo[p.VirtNum()+1]++
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d.IsVirt() {
				lo[d.VirtNum()+1]++
			}
		}
	}
	for v := 0; v < nv; v++ {
		lo[v+1] += lo[v]
		if paramSite[v] >= 0 {
			paramSite[v] = lo[v]
		}
	}
	nsites := int(lo[nv])
	words := (nsites + 63) / 64
	row := func(s []uint64, b ir.BlockID) []uint64 {
		return s[int(b)*words : int(b+1)*words]
	}

	// Definitions are numbered by a per-register cursor that every pass
	// restarts and advances in the same block/instruction order, so a
	// definition gets the same site in each of them.
	next := scratch.Slice(ws.next, nv)
	ws.next = next
	restart := func() {
		for v := range next {
			next[v] = lo[v]
			if paramSite[v] >= 0 {
				next[v]++
			}
		}
	}

	// Per-block gen and kill.
	gen := scratch.Slice(ws.gen, nb*words)
	kill := scratch.Slice(ws.kill, nb*words)
	out := scratch.Slice(ws.out, nb*words)
	entry := scratch.Slice(ws.entry, words)
	cur := scratch.Slice(ws.cur, words)
	ws.gen, ws.kill, ws.out, ws.entry, ws.cur = gen, kill, out, entry, cur
	restart()
	for _, b := range f.Blocks {
		g, k := row(gen, b.ID), row(kill, b.ID)
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d.IsVirt() {
				v := d.VirtNum()
				s := next[v]
				next[v]++
				fillRange(k, lo[v], lo[v+1])
				clearRange(g, lo[v], lo[v+1])
				g[s>>6] |= 1 << (uint(s) & 63)
			}
		}
	}
	for _, s := range paramSite {
		if s >= 0 {
			entry[s>>6] |= 1 << (uint(s) & 63)
		}
	}

	// meet loads cur with in[b]: the union of b's predecessors' out
	// sets, plus the parameter sites at the entry block (which may have
	// predecessors of its own through a back edge).
	meet := func(b *ir.Block) {
		if b.ID == 0 {
			copy(cur, entry)
		} else {
			clear(cur)
		}
		for _, p := range b.Preds {
			for i, w := range row(out, p) {
				cur[i] |= w
			}
		}
	}

	// Iterate to the fixpoint with a FIFO worklist: a block re-merges
	// only after a predecessor's out actually changed. The union
	// dataflow is monotone with a unique least fixpoint, so the
	// schedule does not affect the result.
	wl := ws.worklist[:0]
	onWL := scratch.Slice(ws.onWorklist, nb)
	for _, b := range f.Blocks {
		wl = append(wl, int32(b.ID))
		onWL[b.ID] = true
	}
	for head := 0; head < len(wl); head++ {
		bid := ir.BlockID(wl[head])
		onWL[bid] = false
		b := f.Blocks[bid]
		meet(b)
		changed := false
		g, k, o := row(gen, bid), row(kill, bid), row(out, bid)
		for i, w := range cur {
			if w = w&^k[i] | g[i]; w != o[i] {
				o[i] = w
				changed = true
			}
		}
		if changed {
			for _, s := range b.Succs {
				if !onWL[s] {
					onWL[s] = true
					wl = append(wl, int32(s))
				}
			}
		}
	}
	ws.worklist, ws.onWorklist = wl[:0], onWL

	// Walk each block, unioning every use with all of its reaching
	// definitions: the set bits of cur inside the register's range.
	uf := &ws.uf
	uf.reinit(nsites)
	reachingAt := func(u ir.Reg) int32 {
		v := u.VirtNum()
		l, h := int(lo[v]), int(lo[v+1])
		first := -1
		for wi := l >> 6; wi<<6 < h; wi++ {
			for w := cur[wi] & rangeMask(wi, l, h); w != 0; w &= w - 1 {
				s := wi<<6 + bits.TrailingZeros64(w)
				if first < 0 {
					first = s
				} else {
					uf.union(first, s)
				}
			}
		}
		if first >= 0 {
			return int32(first)
		}
		s := undefSite[v]
		if s < 0 {
			s = int32(len(uf.parent))
			undefSite[v] = s
			uf.grow(int(s) + 1)
		}
		return s
	}
	define := func(d ir.Reg) int32 {
		v := d.VirtNum()
		s := next[v]
		next[v]++
		clearRange(cur, lo[v], lo[v+1])
		cur[s>>6] |= 1 << (uint(s) & 63)
		return s
	}
	restart()
	for _, b := range f.Blocks {
		meet(b)
		for i := range b.Instrs {
			instr := &b.Instrs[i]
			for _, u := range instr.Uses {
				if u.IsVirt() {
					reachingAt(u)
				}
			}
			if d := instr.Def(); d.IsVirt() {
				define(d)
			}
		}
	}

	// Assign web numbers to union-find roots, in deterministic (walk
	// order) sequence, and rewrite operands in a second walk. Every
	// undefined-use site exists now: the second walk resolves the same
	// uses.
	ws.webOf = scratch.Fill(ws.webOf, len(uf.parent), int32(-1))
	webOf := ws.webOf
	// Each web's Origins row starts as a one-register window on a
	// shared buffer with a slot per site, enough for every web.
	origins := scratch.Slice(ws.origins, len(uf.parent))
	ws.origins = origins
	info := &ws.info
	info.NumWebs = 0
	info.Origins = info.Origins[:0]
	webFor := func(site int32, orig ir.Reg) ir.Reg {
		root := uf.find(int(site))
		w := webOf[root]
		if w < 0 {
			w = int32(info.NumWebs)
			webOf[root] = w
			info.NumWebs++
			info.Origins = append(info.Origins, origins[w:w:w+1])
		}
		found := false
		for _, r := range info.Origins[w] {
			if r == orig {
				found = true
				break
			}
		}
		if !found {
			info.Origins[w] = append(info.Origins[w], orig)
		}
		return ir.Virt(int(w))
	}

	// Parameters first, so their webs get the smallest numbers.
	newParams := make([]ir.Reg, len(f.Params))
	for i, p := range f.Params {
		if p.IsVirt() {
			newParams[i] = webFor(paramSite[p.VirtNum()], p)
		} else {
			newParams[i] = p
		}
	}

	restart()
	for _, b := range f.Blocks {
		meet(b)
		for i := range b.Instrs {
			instr := &b.Instrs[i]
			for ui, u := range instr.Uses {
				if u.IsVirt() {
					instr.Uses[ui] = webFor(reachingAt(u), u)
				}
			}
			if d := instr.Def(); d.IsVirt() {
				instr.Defs[0] = webFor(define(d), d)
			}
		}
	}

	f.Params = newParams
	f.NumVirt = info.NumWebs
	return info, nil
}

// rangeMask returns the bits of word wi that fall inside [lo, hi).
func rangeMask(wi, lo, hi int) uint64 {
	base := wi << 6
	m := ^uint64(0)
	if lo > base {
		m <<= uint(lo - base)
	}
	if hi < base+64 {
		m &^= ^uint64(0) << uint(hi-base)
	}
	return m
}

// fillRange sets bits [lo, hi) of s.
func fillRange(s []uint64, lo, hi int32) {
	for wi := int(lo) >> 6; wi<<6 < int(hi); wi++ {
		s[wi] |= rangeMask(wi, int(lo), int(hi))
	}
}

// clearRange clears bits [lo, hi) of s.
func clearRange(s []uint64, lo, hi int32) {
	for wi := int(lo) >> 6; wi<<6 < int(hi); wi++ {
		s[wi] &^= rangeMask(wi, int(lo), int(hi))
	}
}

// unionFind is a standard disjoint-set structure with path compression
// and union by size.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{}
	u.reinit(n)
	return u
}

// reinit resets u to n singleton sets, reusing its slices.
func (u *unionFind) reinit(n int) {
	if cap(u.parent) < n {
		u.parent = make([]int, n)
		u.size = make([]int, n)
	}
	u.parent, u.size = u.parent[:n], u.size[:n]
	for i := range u.parent {
		u.parent[i] = i
		u.size[i] = 1
	}
}

func (u *unionFind) grow(n int) {
	for len(u.parent) < n {
		u.parent = append(u.parent, len(u.parent))
		u.size = append(u.size, 1)
	}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) int {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return ra
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	return ra
}
