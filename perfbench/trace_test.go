package main

import (
	"testing"
	"time"
)

// The self times of an operation's spans add up to its root's
// duration, with overlapping children counted once.
func TestSelfTimesAccountForTheRoot(t *testing.T) {
	tr := newTracer()
	op := tr.NewOp()
	root := tr.Add(op, 0, "root", 0, 100, "timed")
	a := tr.Add(op, root, "a", 10, 40, "timed")
	tr.Add(op, a, "a1", 15, 25, "telemetry")
	tr.Add(op, root, "b", 30, 60, "timed")  // overlaps a by 10
	tr.Add(op, root, "c", 90, 120, "timed") // runs past the root
	self, roots := tr.SelfTimes()
	want := map[string]time.Duration{"root": 100 - 60, "a": 30 - 10, "a1": 10, "b": 30, "c": 30}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self[%s] = %d, want %d", name, self[name], d)
		}
	}
	if roots != 100 {
		t.Errorf("roots = %d, want 100", roots)
	}
	acc := tr.Accounting()["root"]
	if acc[2] != 1 || acc[1] != 100 {
		t.Errorf("accounting = %v, want one op of 100", acc)
	}
}

// Graft re-homes a replayed Run under a request and keeps the probe
// operation apart.
func TestGraft(t *testing.T) {
	src := newTracer()
	probe := src.NewOp()
	src.Add(probe, 0, "probe.round1", 0, 5, "timed")
	run := src.NewOp()
	r := src.Add(run, 0, "regalloc.Run", 1000, 1100, "timed")
	src.Add(run, r, "core.allocate", 1020, 1080, "timed")

	dst := newTracer()
	op := dst.NewOp()
	req := dst.Add(op, 0, "server.request", 0, 500, "timed")
	dst.Graft(src, run, op, req, 200, 500)
	self, _ := dst.SelfTimes()
	if self["server.request"] != 400 || self["regalloc.Run"] != 40 || self["core.allocate"] != 60 {
		t.Errorf("self times after graft = %v", self)
	}
	// A replay longer than the request is clipped to the request.
	op2 := dst.NewOp()
	req2 := dst.Add(op2, 0, "server.request", 1000, 1050, "timed")
	dst.Graft(src, run, op2, req2, 1000, 1050)
	if acc := dst.Accounting()["server.request"]; acc[0] != acc[1] {
		t.Errorf("self times %v do not add up to the requests' %v", acc[0], acc[1])
	}
	acc := dst.Accounting()
	if acc["server.request"][2] != 2 || acc["probe.round1"][2] != 2 {
		t.Errorf("grafted operations = %v, want two requests and two probes", acc)
	}
}
