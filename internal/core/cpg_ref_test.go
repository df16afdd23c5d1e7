package core

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// refCPG is the general slice-row precedence graph the production
// builder replaced: successor lists indexed by cpgIdx, an
// epoch-marked visit buffer, and transitive reduction by DFS per
// inserted edge. It carries no ordering assumption, so it serves as
// the oracle for buildCPGInto and as a reachability helper for tests.
type refCPG struct {
	succs      [][]ig.NodeID
	visitMark  []uint32
	visitEpoch uint32
	work       []ig.NodeID
}

// ensure grows the rows to cover slot i.
func (c *refCPG) ensure(i int) {
	for i >= len(c.succs) {
		c.succs = append(c.succs, nil)
		c.visitMark = append(c.visitMark, 0)
	}
}

// succsOf returns n's successor list (nil when n has none).
func (c *refCPG) succsOf(n ig.NodeID) []ig.NodeID {
	if i := cpgIdx(n); i < len(c.succs) {
		return c.succs[i]
	}
	return nil
}

// addEdge adds a→b unless it is already present.
func (c *refCPG) addEdge(a, b ig.NodeID) {
	c.ensure(max(cpgIdx(a), cpgIdx(b)))
	if !slices.Contains(c.succs[cpgIdx(a)], b) {
		c.succs[cpgIdx(a)] = append(c.succs[cpgIdx(a)], b)
	}
}

// removeEdge deletes a→b if present.
func (c *refCPG) removeEdge(a, b ig.NodeID) {
	ai := cpgIdx(a)
	if j := slices.Index(c.succs[ai], b); j >= 0 {
		c.succs[ai] = slices.Delete(c.succs[ai], j, j+1)
	}
}

// addEdgeReduced adds u→n keeping the graph transitively reduced: the
// edge is skipped if a path u⇝n already exists, and existing edges
// u→x that the new edge makes transitive (n⇝x) are removed.
func (c *refCPG) addEdgeReduced(u, n ig.NodeID) {
	if c.reachable(u, n) {
		return
	}
	c.addEdge(u, n)
	c.markFrom(n)
	for _, x := range slices.Clone(c.succsOf(u)) {
		if x != n && c.marked(x) {
			c.removeEdge(u, x)
		}
	}
}

// mark records n as visited in the current epoch, reporting whether it
// was newly marked.
func (c *refCPG) mark(n ig.NodeID) bool {
	i := cpgIdx(n)
	c.ensure(i)
	if c.visitMark[i] == c.visitEpoch {
		return false
	}
	c.visitMark[i] = c.visitEpoch
	return true
}

// marked reports whether n was visited in the current epoch.
func (c *refCPG) marked(n ig.NodeID) bool {
	i := cpgIdx(n)
	return i < len(c.visitMark) && c.visitMark[i] == c.visitEpoch
}

// markFrom starts a fresh epoch and marks every node reachable from a
// (including a itself).
func (c *refCPG) markFrom(a ig.NodeID) {
	c.visitEpoch++
	c.mark(a)
	c.work = append(c.work[:0], a)
	for len(c.work) > 0 {
		x := c.work[len(c.work)-1]
		c.work = c.work[:len(c.work)-1]
		for _, s := range c.succsOf(x) {
			if c.mark(s) {
				c.work = append(c.work, s)
			}
		}
	}
}

// reachable reports whether a path a⇝b exists.
func (c *refCPG) reachable(a, b ig.NodeID) bool {
	c.markFrom(a)
	return c.marked(b)
}

// refFromCPG copies c's edges into a reference graph, for the
// reachability queries the property tests make.
func refFromCPG(c *CPG) *refCPG {
	r := &refCPG{}
	for n := Bottom; cpgIdx(n) < c.slots; n++ {
		for _, s := range c.Succs(n) {
			r.addEdge(n, s)
		}
	}
	return r
}

// buildCPGReference is the nine-step construction with the general
// addEdgeReduced call per step-7 edge — the form buildCPGInto
// specializes by exploiting the replay's pop ordering.
func buildCPGReference(g *ig.Graph, stack []ig.NodeID, potentialSpill []bool, k int) *refCPG {
	c := &refCPG{}
	present := make([]bool, g.NumNodes())
	for _, n := range stack {
		present[n] = true
	}
	wigDeg := make([]int, g.NumNodes())
	for _, n := range stack {
		d := 0
		g.ForEachOrigNeighbor(n, func(nb ig.NodeID) {
			if present[nb] {
				d++
			}
		})
		wigDeg[n] = d
	}
	inCPG := make([]bool, g.NumNodes())
	ready := make([]bool, g.NumNodes())
	for _, n := range stack {
		switch {
		case wigDeg[n] < k:
			inCPG[n] = true
			c.addEdge(n, Bottom)
			ready[n] = true
		case int(n) < len(potentialSpill) && potentialSpill[n]:
			inCPG[n] = true
			c.addEdge(n, Bottom)
		}
	}
	for _, n := range stack {
		present[n] = false
		var remaining []ig.NodeID
		g.ForEachOrigNeighbor(n, func(nb ig.NodeID) {
			if present[nb] {
				remaining = append(remaining, nb)
			}
		})
		for _, nb := range remaining {
			inCPG[nb] = true
		}
		sawNonReady := false
		for _, nb := range remaining {
			if !ready[nb] {
				sawNonReady = true
				c.addEdgeReduced(nb, n)
			}
		}
		if !sawNonReady {
			c.addEdge(Top, n)
		}
		for _, nb := range remaining {
			wigDeg[nb]--
			if wigDeg[nb] < k {
				ready[nb] = true
			}
		}
	}
	return c
}

// diffCPG requires got to hold exactly want's edges: for Top, Bottom
// and every graph node, the same sorted successor and predecessor
// sets. Row order is not compared; bit rows have none, and selection
// reads every row as a set.
func diffCPG(t *testing.T, g *ig.Graph, got *CPG, want *refCPG, label string) {
	t.Helper()
	wantPreds := make(map[ig.NodeID][]ig.NodeID)
	for i, row := range want.succs {
		for _, s := range row {
			wantPreds[s] = append(wantPreds[s], ig.NodeID(i-2))
		}
	}
	for n := Bottom; int(n) < g.NumNodes(); n++ {
		ws := slices.Clone(want.succsOf(n))
		slices.Sort(ws)
		if gs := got.Succs(n); !slices.Equal(gs, ws) {
			t.Fatalf("%s: succs(%d) = %v, reference %v", label, n, gs, ws)
		}
		wp := wantPreds[n]
		slices.Sort(wp)
		if gp := got.Preds(n); !slices.Equal(gp, wp) {
			t.Fatalf("%s: preds(%d) = %v, reference %v", label, n, gp, wp)
		}
	}
}

// cpgCheck is the pref-full allocator with a check after every round:
// the CPG the round built must match the reference construction over
// the round's own simplification stack. Wrapped in regalloc.Run it
// covers round 1 and every later spill round, whose inputs carry the
// previous rounds' spill code.
type cpgCheck struct {
	t      *testing.T
	label  string
	rounds int
}

func (c *cpgCheck) Name() string { return "pref-full" }

func (c *cpgCheck) Allocate(ctx *regalloc.Context) (*regalloc.Result, error) {
	res, err := New().Allocate(ctx)
	if err != nil {
		return res, err
	}
	c.rounds++
	cs := coreScratchFor(ctx)
	want := buildCPGReference(ctx.Graph, cs.order, cs.potential, ctx.K())
	diffCPG(c.t, ctx.Graph, &cs.cpg, want, fmt.Sprintf("%s/round%d", c.label, c.rounds))
	return res, nil
}

// checkCPGRounds allocates f with pref-full, comparing the CPG of every
// round against the reference, and returns the number of rounds.
func checkCPGRounds(t *testing.T, f *ir.Func, m *target.Machine, label string) int {
	t.Helper()
	c := &cpgCheck{t: t, label: label}
	if _, _, err := regalloc.Run(f, m, c, regalloc.Options{}); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return c.rounds
}

// TestCPGBuildMatchesReference checks the bit-row builder against the
// reference over random programs.
func TestCPGBuildMatchesReference(t *testing.T) {
	m := target.UsageModel(8)
	k := m.NumRegs
	for seed := int64(1); seed <= 60; seed++ {
		f := workload.GenerateRawFunc(propProfile, m, seed)
		if _, err := ig.Renumber(f); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ctx, err := regalloc.NewContext(f, m, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g := ctx.Graph
		stack, potential := simplifyOptimistic(g, k)
		got, err := BuildCPG(g, stack, potential, k)
		if err != nil {
			t.Fatalf("seed %d: BuildCPG: %v", seed, err)
		}
		diffCPG(t, g, got, buildCPGReference(g, stack, potential, k), fmt.Sprintf("seed %d", seed))
	}
}

// TestCPGBuildMatchesReferenceWorkloads runs the comparison over every
// round of every benchmark profile and the large profile on two
// machines: the generated functions as they enter regalloc.Run, and
// every later pref-full spill round.
func TestCPGBuildMatchesReferenceWorkloads(t *testing.T) {
	profiles := append(workload.Benchmarks(), workload.Large())
	if testing.Short() {
		profiles = []workload.Profile{workload.Large()}
	}
	funcs, rounds := 0, 0
	for _, m := range []*target.Machine{target.UsageModel(16), target.X86Like(8)} {
		for _, p := range profiles {
			for _, f := range workload.Generate(p, m) {
				rounds += checkCPGRounds(t, f, m, m.Name+"/"+f.Name)
				funcs++
			}
		}
	}
	if rounds == funcs {
		t.Fatal("no function needed a second round")
	}
}

// corpusMachines are the machines the metamorph matrix replays its
// corpus on (metamorph.Machines, which imports this package).
func corpusMachines() []*target.Machine {
	return []*target.Machine{
		target.UsageModel(8),
		target.S390Like(8),
		target.X86Like(8).WithIA64AddImmLimit(),
	}
}

// TestCPGBuildMatchesReferenceCorpus compares every round of the
// metamorph reproducer corpus on the matrix machines, and of 60 raw
// workload.Fuzz() functions on a small machine.
func TestCPGBuildMatchesReferenceCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "metamorph", "testdata", "corpus", "*.ir"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("empty metamorph corpus")
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, m := range corpusMachines() {
			checkCPGRounds(t, f, m, m.Name+"/"+filepath.Base(path))
		}
	}
	m := target.UsageModel(6)
	for seed := int64(1); seed <= 60; seed++ {
		f := workload.GenerateRawFunc(workload.Fuzz(), m, seed)
		checkCPGRounds(t, f, m, f.Name)
	}
}

// FuzzCPGMatchesReference compares every pref-full round of raw
// generator output against the reference, over the seed.
func FuzzCPGMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 77, 1 << 40} {
		f.Add(seed)
	}
	m := target.UsageModel(6)
	f.Fuzz(func(t *testing.T, seed int64) {
		fn := workload.GenerateRawFunc(workload.Fuzz(), m, seed)
		checkCPGRounds(t, fn, m, fn.Name)
	})
}
