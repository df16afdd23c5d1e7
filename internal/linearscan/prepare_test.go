package linearscan

import (
	"testing"

	"prefcolor/internal/ir"
	"prefcolor/internal/liveness"
	"prefcolor/internal/target"
)

// TestPrepareLoadsPhysAcrossWordBoundary pins the one-bit shift that
// loads a liveness row (physical register p at bit p+1) into the fast
// path's machine-numbered phys row: r63 sits at bit 0 of the row's
// second word and must carry down into bit 63 of the first. Both load
// sites are covered — the entry clique (v0 against the live-in r63
// and r64) and a block's live-out (v1 defined while they stay live
// into b2) — and v2, defined after their last use, must stay free of
// them. The workload machines have at most 24 registers and never
// reach the carry.
func TestPrepareLoadsPhysAcrossWordBoundary(t *testing.T) {
	m := target.UsageModel(80)
	f := ir.MustParse(`
func f(v0) {
b0:
  v4 = add v0, r63
  v5 = add v4, r64
  jump b1
b1:
  v1 = loadimm 1
  jump b2
b2:
  v2 = add r63, r64
  v3 = add v2, v1
  v6 = add v3, v5
  ret v6
}
`)
	ws := NewFastWorkspace()
	nw, pw := f.NumVirt, (m.NumRegs+63)/64
	ws.s.reset(nw, m.NumRegs)
	ws.prepare(f, liveness.ComputeInto(f, &ws.live), nw, pw, make([]uint64, pw))
	forbids := func(v, p int) bool { return ws.forbid[v*pw+p>>6]>>(uint(p)&63)&1 != 0 }
	for _, c := range []struct {
		v, p int
		want bool
	}{
		{0, 63, true}, {0, 64, true},
		{1, 63, true}, {1, 64, true},
		{2, 63, false}, {2, 64, false},
	} {
		if got := forbids(c.v, c.p); got != c.want {
			t.Errorf("v%d forbids r%d = %v, want %v", c.v, c.p, got, c.want)
		}
	}
}
