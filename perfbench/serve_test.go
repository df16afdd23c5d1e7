package main

import "testing"

// slotMins takes, for each call, its least value over the plays.
func TestSlotMinsTakesLeastPerCall(t *testing.T) {
	res := [][]callResult{
		{{done: 5}, {done: 1}, {done: 7}},
		{{done: 2}, {done: 4}, {done: 9}},
		{{done: 3}, {done: 6}, {done: 8}},
	}
	got := slotMins(res, func(_ int, r *callResult) float64 { return float64(r.done) })
	for i, want := range []float64{2, 1, 7} {
		if got[i] != want {
			t.Fatalf("call %d: got %v, want %v", i, got[i], want)
		}
	}
}
