package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed interval of the traced run. Spans of one operation
// share Op; Parent is the ID of the enclosing span, 0 for the
// operation's root. Src says where the interval came from: "timed"
// (clocked by the benchmark around a call), "telemetry" (a duration
// the program's own Stats.Telemetry timers report, laid out inside its
// parent), or "replay" (the benchmark re-ran that layer in-process on
// the request's input and placed the duration inside the request).
type Span struct {
	ID     int64  `json:"id"`
	Op     int64  `json:"op"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Src    string `json:"src"`
}

// Tracer keeps spans in memory until the run ends.
type Tracer struct {
	epoch time.Time
	spans []Span
	ops   int64
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// At converts a wall-clock instant to trace time.
func (t *Tracer) At(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// NewOp returns a fresh operation ID.
func (t *Tracer) NewOp() int64 {
	t.ops++
	return t.ops
}

// Add records a span and returns its ID. end is clipped to start, so
// a telemetry duration never yields a negative interval.
func (t *Tracer) Add(op, parent int64, name string, start, end int64, src string) int64 {
	if end < start {
		end = start
	}
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Op: op, Parent: parent, Name: name, Start: start, End: end, Src: src})
	return id
}

// Seq lays out consecutive child spans of the given durations from
// start, the way the telemetry phases follow one another inside their
// parent, and returns the end of the last one.
func (t *Tracer) Seq(op, parent int64, start int64, names []string, durs []time.Duration, src string) int64 {
	at := start
	for i, name := range names {
		t.Add(op, parent, name, at, at+int64(durs[i]), src)
		at += int64(durs[i])
	}
	return at
}

// SelfTimes returns, per span name, the summed self time — each span's
// duration minus the part of its interval its children cover — and
// the summed duration of the root spans. By construction the self
// times of an operation's spans add up to its root's duration, which
// is how the layer metrics account for the whole operation.
func (t *Tracer) SelfTimes() (self map[string]time.Duration, roots time.Duration) {
	children := make(map[int64][]Span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.Parent == 0 {
			roots += time.Duration(s.End - s.Start)
		}
		self[s.Name] += time.Duration(s.End-s.Start) - covered(s, children[s.ID])
	}
	return self, roots
}

// covered returns how much of s's interval the union of kids covers.
func covered(s Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// Total returns the summed duration of every span with the given name.
func (t *Tracer) Total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

// Graft copies the spans src recorded for one replayed allocation into
// t: the spans of operation runOp go under parent in operation op,
// shifted so that runOp's root starts at at and clipped to end by
// limit; every other operation of src (the round-1 probe) becomes a
// fresh operation of its own, shifted alike. src must have recorded
// parents before children.
func (t *Tracer) Graft(src *Tracer, runOp, op, parent, at, limit int64) {
	var base int64
	for _, s := range src.spans {
		if s.Op == runOp && s.Parent == 0 {
			base = s.Start
		}
	}
	ops := map[int64]int64{runOp: op}
	ids := map[int64]int64{}
	for _, s := range src.spans {
		o, ok := ops[s.Op]
		if !ok {
			o = t.NewOp()
			ops[s.Op] = o
		}
		p := ids[s.Parent]
		start, end := s.Start-base+at, s.End-base+at
		if s.Op == runOp {
			start, end = min(start, limit), min(end, limit)
			if s.Parent == 0 {
				p = parent
			}
		}
		ids[s.ID] = t.Add(o, p, s.Name, start, end, "replay")
	}
}

// Accounting checks, per root span name, that the self times of every
// span in those operations add up to the roots' summed duration — the
// layers plus the explicit unattributed remainder make up the whole.
// It returns root name → (summed self times, summed root durations,
// operations).
func (t *Tracer) Accounting() map[string][3]float64 {
	rootOf := map[int64]string{}
	for _, s := range t.spans {
		if s.Parent == 0 {
			rootOf[s.Op] = s.Name
		}
	}
	children := make(map[int64][]Span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][3]float64{}
	for _, s := range t.spans {
		a := out[rootOf[s.Op]]
		d := float64(s.End - s.Start)
		a[0] += d - float64(covered(s, children[s.ID]))
		if s.Parent == 0 {
			a[1] += d
			a[2]++
		}
		out[rootOf[s.Op]] = a
	}
	return out
}
