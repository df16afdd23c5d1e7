package core

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"prefcolor/internal/ig"
	"prefcolor/internal/scratch"
)

// Top and Bottom are the CPG's order-boundary pseudo-nodes. An edge
// a→b means a must be colored no later than b becomes colorable; Top
// precedes everything it points to, Bottom follows everything pointing
// to it.
const (
	Top    ig.NodeID = -1
	Bottom ig.NodeID = -2
)

// cpgIdx maps a node id to its slot in the CPG's rows: Bottom and Top
// occupy the first two slots, real nodes follow at id+2. Slots number
// both the rows and the bits within a row, so ascending bit order is
// ascending node id.
func cpgIdx(n ig.NodeID) int { return int(n) + 2 }

// CPG is the Coloring Precedence Graph (§5.2): the partial order on
// register-selection obtained by relaxing the simplification stack's
// total order without giving up the colorability the stack guarantees.
// Each slot owns one successor bit row: bit j of row i is the edge
// from slot i to slot j. Predecessors are read down a column.
type CPG struct {
	slots, words int
	succ         []uint64 // slots rows of words words each, flat

	// desc is construction-only, shaped like succ. Once node n is
	// popped, its row holds every slot n reaches by a non-empty path;
	// bit 0 (Bottom's slot) is n's reaches-Bottom bit.
	desc []uint64

	// Construction-only scratch, reused across rebuilds of this CPG
	// (buildCPGInto): stack membership as a bitset shaped like the
	// graph's adjacency rows (so degree restriction is a word-AND and
	// popcount against OrigRow), WIG degrees, CPG membership,
	// readiness, and the per-pop remaining-neighbor list.
	presentBits []uint64
	wigDeg      []int
	inCPG       []bool
	ready       []bool
	remaining   []ig.NodeID
}

// reset empties the graph and sizes it for a graph of numNodes nodes,
// keeping the backing array.
func (c *CPG) reset(numNodes int) {
	c.slots = cpgIdx(ig.NodeID(numNodes))
	c.words = (c.slots + 63) >> 6
	c.succ = scratch.Slice(c.succ, c.slots*c.words)
}

// row returns slot i's successor row.
func (c *CPG) row(i int) []uint64 {
	return c.succ[i*c.words : (i+1)*c.words : (i+1)*c.words]
}

// succRow returns n's successor row, or nil when n has no slot.
func (c *CPG) succRow(n ig.NodeID) []uint64 {
	if i := cpgIdx(n); i >= 0 && i < c.slots {
		return c.row(i)
	}
	return nil
}

// setBit sets bit i of row.
func setBit(row []uint64, i int) { row[i>>6] |= 1 << (uint(i) & 63) }

// hasBit reports whether bit i of row is set.
func hasBit(row []uint64, i int) bool { return row[i>>6]&(1<<(uint(i)&63)) != 0 }

// addEdge adds a→b.
func (c *CPG) addEdge(a, b ig.NodeID) { setBit(c.row(cpgIdx(a)), cpgIdx(b)) }

// BuildCPG runs the paper's nine-step construction.
//
// stack is the simplification stack in removal order (stack[0] was
// removed first — the paper's RS pops in exactly this order);
// potentialSpill, indexed by node id, marks the stack entries that
// were removed at significant degree (optimistic simplification's
// "spilled" marks). The working interference graph is the original
// graph minus its physical nodes, per step 2.
func BuildCPG(g *ig.Graph, stack []ig.NodeID, potentialSpill []bool, k int) (*CPG, error) {
	c := &CPG{}
	if err := buildCPGInto(c, g, stack, potentialSpill, k); err != nil {
		return nil, err
	}
	return c, nil
}

// buildCPGInto is BuildCPG targeting a caller-owned (possibly
// previously used) CPG: the graph is reset and rebuilt in its existing
// storage, and all construction scratch lives on the CPG itself.
func buildCPGInto(c *CPG, g *ig.Graph, stack []ig.NodeID, potentialSpill []bool, k int) error {
	c.reset(g.NumNodes())
	words := c.words
	// Every desc row is written at its node's pop before anything
	// reads it, so the buffer is resized without clearing.
	if cap(c.desc) < len(c.succ) {
		c.desc = make([]uint64, len(c.succ))
	}
	c.desc = c.desc[:len(c.succ)]
	// Bottom's row is read like any successor's but adds nothing: an
	// edge to Bottom is already in the successor row each desc row
	// starts from.
	clear(c.desc[:words])

	c.presentBits = scratch.Slice(c.presentBits, g.WordsPerRow())
	present := c.presentBits
	for _, n := range stack {
		if g.IsPhys(n) {
			return fmt.Errorf("core.BuildCPG: physical node %d on the stack", n)
		}
		if hasBit(present, int(n)) {
			return fmt.Errorf("core.BuildCPG: node %d on the stack twice", n)
		}
		setBit(present, int(n))
	}

	// WIG degrees: original adjacency restricted to stack (web) nodes —
	// per node, one AND-and-popcount pass over the row instead of a
	// closure call per set bit.
	c.wigDeg = scratch.Slice(c.wigDeg, g.NumNodes())
	wigDeg := c.wigDeg
	for _, n := range stack {
		d := 0
		for wi, w := range g.OrigRow(n) {
			d += bits.OnesCount64(w & present[wi])
		}
		wigDeg[n] = d
	}

	c.inCPG = scratch.Slice(c.inCPG, g.NumNodes())
	c.ready = scratch.Slice(c.ready, g.NumNodes())
	inCPG, ready := c.inCPG, c.ready

	// Step 4: initial low-degree nodes (ready) and potential-spill
	// nodes (not ready) hang off Bottom.
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

	// Steps 5–9: replay the removal sequence. Every edge points from an
	// unpopped node at an earlier-popped one (or at Bottom), so a
	// popped node's row never changes again: later edges point into
	// it, and pruning only edits rows of unpopped nodes. What n reaches
	// is therefore final at its pop, and one word-OR of its successors'
	// memoized descendant rows computes it.
	remaining := c.remaining
	defer func() { c.remaining = remaining }()
	for _, n := range stack {
		present[int(n)>>6] &^= 1 << (uint(n) & 63)
		if !inCPG[n] {
			return fmt.Errorf("core.BuildCPG: node %d popped before appearing in the CPG (stack inconsistent with graph)", n)
		}
		remaining = remaining[:0]
		for wi, w := range g.OrigRow(n) {
			base := ig.NodeID(wi << 6)
			for m := w & present[wi]; m != 0; m &= m - 1 {
				remaining = append(remaining, base+ig.NodeID(bits.TrailingZeros64(m)))
			}
		}

		// Step 6: materialize remaining neighbors.
		for _, nb := range remaining {
			inCPG[nb] = true
		}

		// desc[n] = succ[n] ∪ ⋃ desc[s] over n's successors s.
		ni := cpgIdx(n)
		succ := c.row(ni)
		desc := c.desc[ni*words : (ni+1)*words : (ni+1)*words]
		copy(desc, succ)
		for wi, sw := range succ {
			for ; sw != 0; sw &= sw - 1 {
				si := wi<<6 + bits.TrailingZeros64(sw)
				for j, x := range c.desc[si*words : (si+1)*words] {
					desc[j] |= x
				}
			}
		}

		// Step 7: non-ready remaining neighbors must precede n. No path
		// nb⇝n exists yet (n has no in-edges before this pop), so the
		// edge is always kept, and it makes every edge from nb to
		// something n reaches transitive — Bottom included.
		sawNonReady := false
		for _, nb := range remaining {
			if ready[nb] {
				continue
			}
			sawNonReady = true
			r := c.row(cpgIdx(nb))
			for j, x := range desc {
				r[j] &^= x
			}
			setBit(r, ni)
		}
		if !sawNonReady {
			c.addEdge(Top, n)
		}
		// Step 8: removal may make neighbors removable.
		for _, nb := range remaining {
			wigDeg[nb]--
			if wigDeg[nb] < k {
				ready[nb] = true
			}
		}
	}
	return nil
}

// Succs returns the successors of n, sorted.
func (c *CPG) Succs(n ig.NodeID) []ig.NodeID {
	var out []ig.NodeID
	for wi, w := range c.succRow(n) {
		for ; w != 0; w &= w - 1 {
			out = append(out, ig.NodeID(wi<<6+bits.TrailingZeros64(w)-2))
		}
	}
	return out
}

// Preds returns the predecessors of n, sorted.
func (c *CPG) Preds(n ig.NodeID) []ig.NodeID {
	var out []ig.NodeID
	if ni := cpgIdx(n); ni >= 0 && ni < c.slots {
		for i := 0; i < c.slots; i++ {
			if hasBit(c.row(i), ni) {
				out = append(out, ig.NodeID(i-2))
			}
		}
	}
	return out
}

// HasEdge reports whether the edge a→b is present.
func (c *CPG) HasEdge(a, b ig.NodeID) bool {
	row := c.succRow(a)
	bi := cpgIdx(b)
	return row != nil && bi >= 0 && bi < c.slots && hasBit(row, bi)
}

// Nodes returns every real (non-pseudo) node mentioned by the CPG,
// sorted: those with a successor or a predecessor.
func (c *CPG) Nodes() []ig.NodeID {
	targets := make([]uint64, c.words)
	for i := 0; i < c.slots; i++ {
		for j, x := range c.row(i) {
			targets[j] |= x
		}
	}
	var out []ig.NodeID
	for i := cpgIdx(0); i < c.slots; i++ {
		if hasBit(targets, i) || !emptyRow(c.row(i)) {
			out = append(out, ig.NodeID(i-2))
		}
	}
	return out
}

// emptyRow reports whether row has no bit set.
func emptyRow(row []uint64) bool {
	for _, w := range row {
		if w != 0 {
			return false
		}
	}
	return true
}

// Dump renders the CPG deterministically for golden tests, naming
// nodes through the graph's register mapping.
func (c *CPG) Dump(g *ig.Graph) string {
	name := func(n ig.NodeID) string {
		switch n {
		case Top:
			return "top"
		case Bottom:
			return "bottom"
		default:
			return g.RegOf(n).String()
		}
	}
	var lines []string
	emit := func(from ig.NodeID) {
		for _, s := range c.Succs(from) {
			lines = append(lines, fmt.Sprintf("%s -> %s", name(from), name(s)))
		}
	}
	emit(Top)
	for _, n := range c.Nodes() {
		emit(n)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
