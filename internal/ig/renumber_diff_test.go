package ig_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"prefcolor/internal/bench"
	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/metamorph"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// diffRenumber renumbers two clones of f, one with RenumberInto on the
// shared scratch ws and one with the retained reference, and demands
// the same outcome: the same error status, the same rewritten text,
// and the same NumWebs and Origins.
func diffRenumber(t *testing.T, ws *ig.RenumberScratch, f *ir.Func, label string) {
	t.Helper()
	got, want := f.Clone(), f.Clone()
	gi, gerr := ig.RenumberInto(got, ws)
	wi, werr := ig.RenumberReference(want)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("%s: error %v, reference error %v", label, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if gs, wsrc := got.String(), want.String(); gs != wsrc {
		t.Fatalf("%s: rewritten function differs from reference:\n%s\nreference:\n%s", label, gs, wsrc)
	}
	if gi.NumWebs != wi.NumWebs {
		t.Fatalf("%s: NumWebs = %d, reference %d", label, gi.NumWebs, wi.NumWebs)
	}
	if !reflect.DeepEqual(gi.Origins, wi.Origins) {
		t.Fatalf("%s: Origins = %v, reference %v", label, gi.Origins, wi.Origins)
	}
}

// TestRenumberMatchesReference pins RenumberInto to the reference on
// hand-written shapes the workload generator never produces.
func TestRenumberMatchesReference(t *testing.T) {
	cases := []struct{ name, src string }{
		{"entry back edge", `
func f(v0) {
b0:
  v2 = add v1, v0
  branch v2, b1, b2
b1:
  v1 = loadimm 3
  v0 = add v0, v1
  jump b0
b2:
  ret v0
}
`},
		{"entry self-loop", `
func f(v0) {
b0:
  v0 = add v0, v0
  branch v0, b0, b1
b1:
  ret v0
}
`},
		{"undefined on some paths", `
func f(v0) {
b0:
  branch v0, b1, b2
b1:
  v1 = loadimm 1
  jump b2
b2:
  v2 = add v1, v0
  ret v2
}
`},
		{"undefined on all paths", `
func f(v0) {
b0:
  v2 = add v1, v1
  branch v2, b1, b2
b1:
  v3 = add v1, v0
  jump b2
b2:
  v4 = add v1, v2
  v1 = loadimm 5
  v5 = add v1, v4
  ret v5
}
`},
		{"duplicate parameters", `
func f(v0, v0, v1, v1) {
b0:
  v2 = add v0, v1
  v0 = add v2, v0
  ret v0
}
`},
		{"physical parameter", `
func f(r0, v0) {
b0:
  v1 = move r0
  v2 = add v1, v0
  ret v2
}
`},
		{"unreachable blocks", `
func f(v0) {
b0:
  v1 = loadimm 1
  jump b2
b1:
  v1 = loadimm 2
  v3 = add v2, v1
  jump b2
b2:
  v2 = add v1, v0
  ret v2
b3:
  v4 = add v4, v0
  jump b4
b4:
  v4 = add v4, v1
  jump b3
}
`},
		{"self-loops", `
func f(v0) {
b0:
  v1 = loadimm 0
  jump b1
b1:
  v1 = add v1, v0
  v2 = cmp v1, v0
  branch v2, b1, b2
b2:
  v3 = add v3, v1
  branch v3, b2, b3
b3:
  ret v1
}
`},
		{"wide register ranges", wideRanges(70)},
	}
	ws := &ig.RenumberScratch{}
	for _, c := range cases {
		f, err := ir.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		diffRenumber(t, ws, f, c.name)
		diffRenumber(t, nil, f, c.name+" (fresh scratch)")
	}
}

// wideRanges returns a function whose register v1 has n definitions,
// so its site range spans several 64-bit words, merged at a loop head
// with the entry definition; the parameter's single site shares the
// first boundary word.
func wideRanges(n int) string {
	var sb strings.Builder
	sb.WriteString("func wide(v0) {\nb0:\n  v1 = loadimm 0\n  jump b1\nb1:\n  v2 = add v1, v0\n  branch v2, b2, b3\nb2:\n")
	for i := 0; i < n; i++ {
		sb.WriteString("  v1 = add v1, v0\n")
	}
	sb.WriteString("  jump b1\nb3:\n  ret v1\n}\n")
	return sb.String()
}

// TestRenumberMatchesReferenceWorkloads runs the comparison over every
// benchmark profile and the large profile, on the generated functions
// as they enter regalloc.Run.
func TestRenumberMatchesReferenceWorkloads(t *testing.T) {
	ws := &ig.RenumberScratch{}
	for _, m := range []*target.Machine{target.UsageModel(16), target.X86Like(8)} {
		for _, p := range append(workload.Benchmarks(), workload.Large()) {
			for _, f := range workload.Generate(p, m) {
				diffRenumber(t, ws, f, m.Name+"/"+f.Name)
			}
		}
	}
}

// roundCapture wraps an allocator to record the renumber input of
// every spill round after the first: a clone of the round's function
// with spill-everywhere code inserted for the round's spilled webs,
// exactly as regalloc.Run prepares it. The next round's Allocate
// checks the capture against the function Run actually renumbered.
type roundCapture struct {
	t       *testing.T
	inner   regalloc.Allocator
	inputs  []*ir.Func
	pending *ir.Func
}

func (c *roundCapture) Name() string { return c.inner.Name() }

func (c *roundCapture) Allocate(ctx *regalloc.Context) (*regalloc.Result, error) {
	if c.pending != nil {
		check := c.pending.Clone()
		if _, err := ig.Renumber(check); err != nil {
			c.t.Fatalf("%s: renumbering the captured round input: %v", ctx.F.Name, err)
		}
		if check.String() != ctx.F.String() {
			c.t.Fatalf("%s: captured round input does not renumber to the round regalloc.Run built", ctx.F.Name)
		}
		c.inputs = append(c.inputs, c.pending)
		c.pending = nil
	}
	res, err := c.inner.Allocate(ctx)
	if err == nil && len(res.Spilled) > 0 {
		next := ctx.F.Clone()
		regalloc.InsertSpillEverywhere(next, spilledWebs(ctx.Graph, res.Spilled))
		c.pending = next
	}
	return res, err
}

// spilledWebs expands spilled nodes to their member webs in the
// order regalloc.Run uses: coalesced members first-seen, physical nodes
// skipped, duplicates dropped.
func spilledWebs(g *ig.Graph, spilled []ig.NodeID) []int {
	seen := map[int]bool{}
	var webs []int
	add := func(n ig.NodeID) {
		if g.IsPhys(n) {
			return
		}
		if w := int(n) - g.NumPhys(); !seen[w] {
			seen[w] = true
			webs = append(webs, w)
		}
	}
	for _, s := range spilled {
		if ms := g.Members(s); len(ms) > 0 {
			for _, m := range ms {
				add(m)
			}
		} else {
			add(s)
		}
	}
	return webs
}

// spillRoundInputs allocates f with the named allocator and returns
// the renumber inputs of its later spill rounds.
func spillRoundInputs(t *testing.T, f *ir.Func, m *target.Machine, name string) []*ir.Func {
	t.Helper()
	alloc, err := bench.NewAllocator(name)
	if err != nil {
		t.Fatal(err)
	}
	c := &roundCapture{t: t, inner: alloc}
	if _, _, err := regalloc.Run(f, m, c, regalloc.Options{}); err != nil {
		t.Fatalf("%s/%s: %v", f.Name, name, err)
	}
	return c.inputs
}

// TestRenumberMatchesReferenceSpillRounds compares the input of every
// spill round regalloc.Run renumbers for pref-full and chaitin: each
// round adds a fresh temporary per reload, so later rounds renumber
// larger functions than the generator emits.
func TestRenumberMatchesReferenceSpillRounds(t *testing.T) {
	ws := &ig.RenumberScratch{}
	profiles := append(workload.Benchmarks(), workload.Large())
	if testing.Short() {
		profiles = []workload.Profile{workload.Large()}
	}
	rounds := 0
	for _, m := range []*target.Machine{target.UsageModel(16), target.X86Like(8)} {
		for _, p := range profiles {
			for _, f := range workload.Generate(p, m) {
				for _, name := range []string{"pref-full", "chaitin"} {
					for i, in := range spillRoundInputs(t, f, m, name) {
						diffRenumber(t, ws, in, fmt.Sprintf("%s/%s/%s/round%d", m.Name, f.Name, name, i+2))
						rounds++
					}
				}
			}
		}
	}
	if rounds == 0 {
		t.Fatal("no function needed a second round")
	}
}

// TestRenumberMatchesReferenceCorpus compares the metamorph reproducer
// corpus, the raw generator output those harnesses share, and the
// later spill rounds of both on a small machine.
func TestRenumberMatchesReferenceCorpus(t *testing.T) {
	ws := &ig.RenumberScratch{}
	cases, err := metamorph.LoadCorpus(filepath.Join("..", "metamorph", "testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("empty metamorph corpus")
	}
	for _, c := range cases {
		diffRenumber(t, ws, c.F, c.File)
	}
	m := target.UsageModel(6)
	for seed := int64(1); seed <= 60; seed++ {
		f := workload.GenerateRawFunc(workload.Fuzz(), m, seed)
		diffRenumber(t, ws, f, f.Name)
		for _, in := range spillRoundInputs(t, f, m, "pref-full") {
			diffRenumber(t, ws, in, f.Name+"/spilled")
		}
	}
}

// FuzzRenumberMatchesReference compares the two renumberers on raw
// generator output and its pref-full spill rounds, over the seed.
func FuzzRenumberMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 77, 1 << 40} {
		f.Add(seed)
	}
	m := target.UsageModel(6)
	f.Fuzz(func(t *testing.T, seed int64) {
		fn := workload.GenerateRawFunc(workload.Fuzz(), m, seed)
		diffRenumber(t, nil, fn, fn.Name)
		for _, in := range spillRoundInputs(t, fn, m, "pref-full") {
			diffRenumber(t, nil, in, fn.Name+"/spilled")
		}
	})
}
