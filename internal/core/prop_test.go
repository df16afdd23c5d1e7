package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"prefcolor/internal/ig"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// propProfile generates call-free, convention-free programs so that
// no physical-register interference muddies the CPG colorability
// invariant (see TestPropCPGTopologicalColorability).
var propProfile = workload.Profile{
	Name: "cpgprop", Funcs: 1, Stmts: 16, MaxDepth: 2,
	LoopProb: 0.12, IfProb: 0.16, CallProb: 0, PairProb: 0.05,
	StoreProb: 0.10, Vars: 8, Params: 0,
}

// TestPropCPGTopologicalColorability checks the paper's §5.2 claim:
// "Any topologically-sorted order from the partial order preserves
// its colorability." For random programs and random CPG-respecting
// orders with adversarial (random) color picks, every node that was
// simplified at low degree must still find a free register when its
// turn comes. Optimistically-removed nodes (potential spills) carry
// no guarantee and are allowed to fail.
func TestPropCPGTopologicalColorability(t *testing.T) {
	m := target.UsageModel(8)
	k := m.NumRegs
	prop := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		rng := rand.New(rand.NewSource(seed))
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
		cpg, err := BuildCPG(g, stack, potential, k)
		if err != nil {
			t.Fatalf("seed %d: BuildCPG: %v", seed, err)
		}

		// Three random topological traversals per program.
		for trial := 0; trial < 3; trial++ {
			color := map[ig.NodeID]int{}
			pc := map[ig.NodeID]int{}
			var ready []ig.NodeID
			for _, n := range cpg.Nodes() {
				cnt := 0
				for _, p := range cpg.Preds(n) {
					if p != Top {
						cnt++
					}
				}
				pc[n] = cnt
				if cnt == 0 {
					ready = append(ready, n)
				}
			}
			done := 0
			for len(ready) > 0 {
				i := rng.Intn(len(ready))
				n := ready[i]
				ready[i] = ready[len(ready)-1]
				ready = ready[:len(ready)-1]
				done++

				used := map[int]bool{}
				for _, nb := range g.OrigNeighbors(n) {
					if g.IsPhys(nb) {
						used[int(nb)] = true
					} else if c, ok := color[nb]; ok {
						used[c] = true
					}
				}
				var avail []int
				for c := 0; c < k; c++ {
					if !used[c] {
						avail = append(avail, c)
					}
				}
				if len(avail) == 0 {
					if !potential[n] {
						t.Logf("seed %d trial %d: low-degree node %d uncolorable", seed, trial, n)
						return false
					}
					// Potential spill: may fail; leave uncolored.
				} else {
					color[n] = avail[rng.Intn(len(avail))]
				}
				for _, sc := range cpg.Succs(n) {
					if sc == Bottom {
						continue
					}
					pc[sc]--
					if pc[sc] == 0 {
						ready = append(ready, sc)
					}
				}
			}
			if done != len(cpg.Nodes()) {
				t.Logf("seed %d trial %d: traversal stuck (%d of %d)", seed, trial, done, len(cpg.Nodes()))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropCPGIsAcyclicAndComplete: the CPG mentions every stacked
// node, reaches each from Top, and contains no cycle.
func TestPropCPGStructure(t *testing.T) {
	m := target.UsageModel(8)
	prop := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		f := workload.GenerateRawFunc(propProfile, m, seed)
		if _, err := ig.Renumber(f); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ctx, err := regalloc.NewContext(f, m, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g := ctx.Graph
		stack, potential := simplifyOptimistic(g, m.NumRegs)
		cpg, err := BuildCPG(g, stack, potential, m.NumRegs)
		if err != nil {
			t.Fatalf("seed %d: BuildCPG: %v", seed, err)
		}
		nodes := cpg.Nodes()
		if len(nodes) != len(stack) {
			t.Logf("seed %d: CPG has %d nodes, stack %d", seed, len(nodes), len(stack))
			return false
		}
		// Acyclic: reachable(n, n) only via the trivial path.
		ref := refFromCPG(cpg)
		for _, n := range nodes {
			for _, s := range cpg.Succs(n) {
				if s == Bottom {
					continue
				}
				if ref.reachable(s, n) {
					t.Logf("seed %d: cycle through %d -> %d", seed, n, s)
					return false
				}
			}
		}
		// Every node has a predecessor (Top counts).
		for _, n := range nodes {
			if len(cpg.Preds(n)) == 0 {
				t.Logf("seed %d: node %d has no predecessors", seed, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
