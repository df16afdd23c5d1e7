package liveness_test

import (
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"testing"

	"prefcolor/internal/bench"
	"prefcolor/internal/cfg"
	"prefcolor/internal/costmodel"
	"prefcolor/internal/ir"
	"prefcolor/internal/liveness"
	"prefcolor/internal/metamorph"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/ssa"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// regsOf lists a row's registers in increasing order, for messages
// and set comparisons.
func regsOf(row []uint64) []ir.Reg {
	var out []ir.Reg
	liveness.ForEach(row, func(r ir.Reg) { out = append(out, r) })
	return out
}

// crossFreq computes the frequency-weighted across-call counts the
// cost model derives from the liveness rows, with the paper's loop
// frequencies.
func crossFreq(f *ir.Func) []float64 {
	loops := cfg.FindLoops(f, cfg.NewDomTree(f))
	return costmodel.Analyze(f, target.UsageModel(16), loops, liveness.Compute(f)).CrossFreq
}

func TestStraightLine(t *testing.T) {
	f := ir.MustParse(`
func f(v0, v1) {
b0:
  v2 = add v0, v1
  v3 = add v2, v0
  ret v3
}
`)
	li := liveness.Compute(f)
	in := li.LiveIn(0)
	if !liveness.Has(in, ir.Virt(0)) || !liveness.Has(in, ir.Virt(1)) {
		t.Errorf("live-in = %v, want v0 and v1", regsOf(in))
	}
	if liveness.Has(in, ir.Virt(2)) || liveness.Has(in, ir.Virt(3)) {
		t.Errorf("live-in = %v has locally-defined regs", regsOf(in))
	}
	if out := regsOf(li.LiveOut(0)); len(out) != 0 {
		t.Errorf("live-out of exit block = %v, want empty", out)
	}
}

func TestLoopLiveness(t *testing.T) {
	// v1 (the accumulator) must be live around the loop; v9 unused.
	f := ir.MustParse(`
func f(v0) {
b0:
  v1 = loadimm 0
  jump b1
b1:
  v2 = add v1, v0
  v1 = move v2
  v3 = cmp v1, v0
  branch v3, b1, b2
b2:
  ret v1
}
`)
	li := liveness.Compute(f)
	if !liveness.Has(li.LiveOut(1), ir.Virt(1)) {
		t.Errorf("v1 not live out of loop body: %v", regsOf(li.LiveOut(1)))
	}
	if !liveness.Has(li.LiveIn(1), ir.Virt(1)) || !liveness.Has(li.LiveIn(1), ir.Virt(0)) {
		t.Errorf("live-in(b1) = %v, want v0, v1", regsOf(li.LiveIn(1)))
	}
	if !liveness.Has(li.LiveOut(0), ir.Virt(1)) {
		t.Errorf("live-out(b0) = %v, want v1", regsOf(li.LiveOut(0)))
	}
}

func TestPhiLiveness(t *testing.T) {
	f := ir.MustParse(`
func f(v0) {
b0:
  branch v0, b1, b2
b1:
  v1 = loadimm 1
  jump b3
b2:
  v2 = loadimm 2
  jump b3
b3:
  v3 = phi v1, v2
  ret v3
}
`)
	li := liveness.Compute(f)
	// φ uses are live out of the matching predecessor only.
	if !liveness.Has(li.LiveOut(1), ir.Virt(1)) || liveness.Has(li.LiveOut(1), ir.Virt(2)) {
		t.Errorf("live-out(b1) = %v, want {v1}", regsOf(li.LiveOut(1)))
	}
	if !liveness.Has(li.LiveOut(2), ir.Virt(2)) || liveness.Has(li.LiveOut(2), ir.Virt(1)) {
		t.Errorf("live-out(b2) = %v, want {v2}", regsOf(li.LiveOut(2)))
	}
	// φ def is not live-in to its own block.
	if liveness.Has(li.LiveIn(3), ir.Virt(3)) {
		t.Errorf("live-in(b3) = %v contains φ def", regsOf(li.LiveIn(3)))
	}
	// And the φ arguments are not live-in to b3 either.
	if liveness.Has(li.LiveIn(3), ir.Virt(1)) || liveness.Has(li.LiveIn(3), ir.Virt(2)) {
		t.Errorf("live-in(b3) = %v contains φ uses", regsOf(li.LiveIn(3)))
	}
}

func TestPhysRegLiveness(t *testing.T) {
	f := ir.MustParse(`
func f() {
b0:
  v0 = move r0
  r0 = move v0
  call @g r0
  ret
}
`)
	li := liveness.Compute(f)
	if !liveness.Has(li.LiveIn(0), ir.Phys(0)) {
		t.Errorf("live-in = %v, want r0 (param register read at entry)", regsOf(li.LiveIn(0)))
	}
}

// TestRowLayout pins the Reg-indexed row encoding every consumer
// relies on: bit int(r) is register r, NoReg (bit 0) is never set,
// and the virtual half starts on a word boundary.
func TestRowLayout(t *testing.T) {
	f := ir.MustParse(`
func f(v0) {
b0:
  v1 = add v0, r3
  v70 = add v1, r0
  ret v70
}
`)
	row := liveness.Compute(f).LiveIn(0)
	want := []ir.Reg{ir.Phys(0), ir.Phys(3), ir.Virt(0)}
	if got := regsOf(row); !slices.Equal(got, want) {
		t.Fatalf("live-in = %v, want %v", got, want)
	}
	if row[0] != 1<<1|1<<4 {
		t.Errorf("phys word = %#x, want r0 at bit 1 and r3 at bit 4", row[0])
	}
	if v := liveness.VirtHalf(row); len(v) != 2 || v[0] != 1 || v[1] != 0 {
		t.Errorf("virtual half = %#x, want v0 at bit 0 over 2 words", v)
	}
	var virts []int
	liveness.ForEachVirt(row, func(n int) { virts = append(virts, n) })
	if len(virts) != 1 || virts[0] != 0 {
		t.Errorf("ForEachVirt = %v, want [0]", virts)
	}
}

func TestForEachInstrReverse(t *testing.T) {
	f := ir.MustParse(`
func f(v0) {
b0:
  v1 = loadimm 1
  v2 = add v0, v1
  ret v2
}
`)
	li := liveness.Compute(f)
	var liveAfterAdd, liveAfterLoad []uint64
	li.ForEachInstrReverse(f.Blocks[0], func(idx int, in *ir.Instr, live []uint64) {
		switch idx {
		case 1:
			liveAfterAdd = append([]uint64(nil), live...)
		case 0:
			liveAfterLoad = append([]uint64(nil), live...)
		}
	})
	if !liveness.Has(liveAfterAdd, ir.Virt(2)) || liveness.Has(liveAfterAdd, ir.Virt(1)) {
		t.Errorf("live after add = %v, want {v2}", regsOf(liveAfterAdd))
	}
	if !liveness.Has(liveAfterLoad, ir.Virt(0)) || !liveness.Has(liveAfterLoad, ir.Virt(1)) {
		t.Errorf("live after loadimm = %v, want v0 and v1", regsOf(liveAfterLoad))
	}
}

func TestLiveAcrossCalls(t *testing.T) {
	f := ir.MustParse(`
func f(v0) {
b0:
  v1 = loadimm 5
  v2 = call @g v0
  v3 = add v1, v2
  ret v3
}
`)
	across := crossFreq(f)
	if across[1] != 1 {
		t.Errorf("v1 across-call weight = %v, want 1", across[1])
	}
	if across[0] != 0 {
		t.Errorf("v0 dies at the call but counted as across: %v", across)
	}
	if across[2] != 0 {
		t.Errorf("v2 is defined by the call but counted as across: %v", across)
	}
}

func TestLiveAcrossCallsFrequencyWeighted(t *testing.T) {
	// b1 is a one-level loop, so its call weighs Freq_Fact = 10.
	f := ir.MustParse(`
func f(v0) {
b0:
  v1 = loadimm 5
  jump b1
b1:
  call @g
  branch v1, b1, b2
b2:
  ret v1
}
`)
	if across := crossFreq(f); across[1] != 10 {
		t.Errorf("v1 across-call weight = %v, want 10", across[1])
	}
}

// refLiveness is the map-based liveness the row solution replaced,
// kept as the test oracle: per-block live-in/live-out sets solved by
// plain set iteration with the same φ rules (a φ's uses are live out
// of the matching predecessor, its definition happens at the block
// head).
type refLiveness struct {
	in, out []map[ir.Reg]bool
}

func addReg(s map[ir.Reg]bool, r ir.Reg) {
	if r != ir.NoReg {
		s[r] = true
	}
}

func referenceLiveness(f *ir.Func) *refLiveness {
	n := len(f.Blocks)
	gen := make([]map[ir.Reg]bool, n)
	kill := make([]map[ir.Reg]bool, n)
	phiDefs := make([]map[ir.Reg]bool, n)
	ref := &refLiveness{in: make([]map[ir.Reg]bool, n), out: make([]map[ir.Reg]bool, n)}
	for _, b := range f.Blocks {
		g, k, pd := map[ir.Reg]bool{}, map[ir.Reg]bool{}, map[ir.Reg]bool{}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.Phi {
				for _, d := range in.Defs {
					addReg(k, d)
					addReg(pd, d)
				}
				continue
			}
			for _, u := range in.Uses {
				if !k[u] {
					addReg(g, u)
				}
			}
			for _, d := range in.Defs {
				addReg(k, d)
			}
		}
		gen[b.ID], kill[b.ID], phiDefs[b.ID] = g, k, pd
		ref.in[b.ID], ref.out[b.ID] = map[ir.Reg]bool{}, map[ir.Reg]bool{}
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := map[ir.Reg]bool{}
			for _, sid := range b.Succs {
				s := f.Blocks[sid]
				for r := range ref.in[sid] {
					if !phiDefs[sid][r] {
						out[r] = true
					}
				}
				for pi, p := range s.Preds {
					if p != b.ID {
						continue
					}
					for j := range s.Instrs {
						if s.Instrs[j].Op != ir.Phi {
							break
						}
						addReg(out, s.Instrs[j].Uses[pi])
					}
				}
			}
			in := map[ir.Reg]bool{}
			for r := range gen[b.ID] {
				in[r] = true
			}
			for r := range out {
				if !kill[b.ID][r] {
					in[r] = true
				}
			}
			if !sameSet(out, ref.out[b.ID]) || !sameSet(in, ref.in[b.ID]) {
				ref.out[b.ID], ref.in[b.ID] = out, in
				changed = true
			}
		}
	}
	return ref
}

func sameSet(a, b map[ir.Reg]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for r := range a {
		if !b[r] {
			return false
		}
	}
	return true
}

// forEachInstrReverse is the map-set backward walk: fn sees the set
// live after each instruction, last to first.
func (ref *refLiveness) forEachInstrReverse(b *ir.Block, fn func(idx int, in *ir.Instr, liveAfter map[ir.Reg]bool)) {
	live := map[ir.Reg]bool{}
	for r := range ref.out[b.ID] {
		live[r] = true
	}
	for idx := len(b.Instrs) - 1; idx >= 0; idx-- {
		in := &b.Instrs[idx]
		fn(idx, in, live)
		for _, d := range in.Defs {
			delete(live, d)
		}
		if in.Op != ir.Phi {
			for _, u := range in.Uses {
				addReg(live, u)
			}
		}
	}
}

// liveAcrossCalls returns, per register, the frequency-weighted
// number of calls it is live across: live immediately after the call
// and not defined by it.
func (ref *refLiveness) liveAcrossCalls(f *ir.Func, freq func(ir.BlockID) float64) map[ir.Reg]float64 {
	out := map[ir.Reg]float64{}
	for _, b := range f.Blocks {
		w := freq(b.ID)
		ref.forEachInstrReverse(b, func(_ int, in *ir.Instr, liveAfter map[ir.Reg]bool) {
			if in.Op != ir.Call {
				return
			}
			for r := range liveAfter {
				if in.Def() != r {
					out[r] += w
				}
			}
		})
	}
	return out
}

// rowMatches reports whether row holds exactly the registers of set.
func rowMatches(row []uint64, set map[ir.Reg]bool) bool {
	n := 0
	ok := true
	liveness.ForEach(row, func(r ir.Reg) {
		n++
		ok = ok && set[r]
	})
	return ok && n == len(set)
}

func setRegs(set map[ir.Reg]bool) []ir.Reg {
	var out []ir.Reg
	for r := range set {
		out = append(out, r)
	}
	slices.Sort(out)
	return out
}

// diffLiveness solves f with ComputeInto on ws and with the reference
// and demands the same live-in and live-out rows, the same live-after
// set at every instruction, and bit-identical across-call weights as
// the cost model sums them.
func diffLiveness(t *testing.T, ws *liveness.Scratch, f *ir.Func, label string) {
	t.Helper()
	li := liveness.ComputeInto(f, ws)
	ref := referenceLiveness(f)
	for _, b := range f.Blocks {
		if !rowMatches(li.LiveIn(b.ID), ref.in[b.ID]) {
			t.Fatalf("%s: live-in(b%d) = %v, reference %v", label, b.ID, regsOf(li.LiveIn(b.ID)), setRegs(ref.in[b.ID]))
		}
		if !rowMatches(li.LiveOut(b.ID), ref.out[b.ID]) {
			t.Fatalf("%s: live-out(b%d) = %v, reference %v", label, b.ID, regsOf(li.LiveOut(b.ID)), setRegs(ref.out[b.ID]))
		}
		var want []map[ir.Reg]bool
		ref.forEachInstrReverse(b, func(_ int, _ *ir.Instr, liveAfter map[ir.Reg]bool) {
			want = append(want, maps.Clone(liveAfter))
		})
		li.ForEachInstrReverse(b, func(idx int, _ *ir.Instr, liveAfter []uint64) {
			if w := want[len(b.Instrs)-1-idx]; !rowMatches(liveAfter, w) {
				t.Fatalf("%s: live after b%d[%d] = %v, reference %v", label, b.ID, idx, regsOf(liveAfter), setRegs(w))
			}
		})
	}
	loops := cfg.FindLoops(f, cfg.NewDomTree(f))
	got := costmodel.Analyze(f, target.UsageModel(16), loops, li).CrossFreq
	across := ref.liveAcrossCalls(f, loops.Freq)
	for w, c := range got {
		if want := across[ir.Virt(w)]; c != want {
			t.Fatalf("%s: v%d across-call weight %v, reference %v", label, w, c, want)
		}
	}
}

// roundCapture wraps an allocator to record the function of every
// round regalloc.Run allocates — renumbered, with the previous rounds'
// spill code — which is exactly what the driver's liveness analysis
// solves.
type roundCapture struct {
	inner  regalloc.Allocator
	inputs []*ir.Func
}

func (c *roundCapture) Name() string { return c.inner.Name() }

func (c *roundCapture) Allocate(ctx *regalloc.Context) (*regalloc.Result, error) {
	c.inputs = append(c.inputs, ctx.F.Clone())
	return c.inner.Allocate(ctx)
}

// roundInputs allocates f with the named allocator and returns the
// inputs of its spill rounds after the first.
func roundInputs(t *testing.T, f *ir.Func, m *target.Machine, name string) []*ir.Func {
	t.Helper()
	alloc, err := bench.NewAllocator(name)
	if err != nil {
		t.Fatal(err)
	}
	c := &roundCapture{inner: alloc}
	if _, _, err := regalloc.Run(f, m, c, regalloc.Options{}); err != nil {
		t.Fatalf("%s/%s: %v", f.Name, name, err)
	}
	return c.inputs[1:]
}

// diffForms compares f, its pruned SSA form (φ edges), and the later
// spill-round inputs of pref-full and chaitin on m.
func diffForms(t *testing.T, ws *liveness.Scratch, f *ir.Func, m *target.Machine, label string) int {
	t.Helper()
	diffLiveness(t, ws, f, label)
	s := f.Clone()
	ssa.Build(s)
	diffLiveness(t, ws, s, label+"/ssa")
	rounds := 0
	for _, name := range []string{"pref-full", "chaitin"} {
		for i, in := range roundInputs(t, f, m, name) {
			diffLiveness(t, ws, in, fmt.Sprintf("%s/%s/round%d", label, name, i+2))
			rounds++
		}
	}
	return rounds
}

// TestLivenessMatchesReference runs the row solver and the map
// reference over hand-written φ shapes, every workload profile, their
// SSA forms and spill rounds, and the metamorph corpus, all on one
// shared Scratch so reuse across differently sized functions is
// exercised too.
func TestLivenessMatchesReference(t *testing.T) {
	ws := &liveness.Scratch{}
	for _, src := range []string{`
func f(v0) {
b0:
  branch v0, b1, b1
b1:
  v1 = phi v0, v0
  v2 = phi v0, v1
  ret v2
}
`, `
func f(v0) {
b0:
  jump b1
b1:
  v1 = phi v0, v2
  v2 = add v1, v0
  branch v2, b1, b2
b2:
  v3 = call @g r0
  ret v1
}
`} {
		f := ir.MustParse(src)
		diffLiveness(t, ws, f, "hand-written")
	}

	profiles := append(workload.Benchmarks(), workload.Large())
	if testing.Short() {
		profiles = []workload.Profile{workload.Large()}
	}
	rounds := 0
	for _, m := range []*target.Machine{target.UsageModel(16), target.X86Like(8)} {
		for _, p := range profiles {
			for _, f := range workload.Generate(p, m) {
				rounds += diffForms(t, ws, f, m, m.Name+"/"+f.Name)
			}
		}
	}
	if rounds == 0 {
		t.Fatal("no function needed a second round")
	}

	cases, err := metamorph.LoadCorpus(filepath.Join("..", "metamorph", "testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("empty metamorph corpus")
	}
	for _, c := range cases {
		diffLiveness(t, ws, c.F, c.File)
	}
}

// FuzzLivenessMatchesReference compares the two solvers on raw
// generator output, its SSA form, and its spill rounds, over the seed.
func FuzzLivenessMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 77, 1 << 40} {
		f.Add(seed)
	}
	m := target.UsageModel(6)
	f.Fuzz(func(t *testing.T, seed int64) {
		fn := workload.GenerateRawFunc(workload.Fuzz(), m, seed)
		diffForms(t, nil, fn, m, fn.Name)
	})
}
