package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"prefcolor/perfbench/stat"
)

// call is one scheduled request: when it is due, relative to the start
// of its phase, and which pool entry and wire form it carries.
type call struct {
	due    time.Duration
	item   int
	binary bool
}

// reply is the part of a /v1/allocate response the checks read.
type reply struct {
	Digest string `json:"digest"`
	Cached bool   `json:"cached"`
	Tier   string `json:"tier"`
}

// callResult is the outcome of one call. Times are relative to the phase start:
// dispatched is when the generator released it (lateness is
// dispatched − due), sent when a connection took it, done when its
// body was read.
type callResult struct {
	dispatched, sent, done time.Duration
	status                 int
	reply                  reply
	err                    error
	memoMiss               bool // the daemon's key memo lacked this body
}

// latencyMS is the call's latency from its due time; a failed call
// counts as infinitely late.
func (r *callResult) latencyMS(c call) float64 {
	if r.err != nil || r.status != http.StatusOK {
		return math.Inf(1)
	}
	return float64(r.done-c.due) / float64(time.Millisecond)
}

// poissonSchedule draws arrivals at rate per second for d, each
// carrying an item from pick and a wire form chosen half and half.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration, pick func(*rand.Rand) int) []call {
	var out []call
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		due := time.Duration(at * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, call{due: due, item: pick(rng), binary: rng.Intn(2) == 1})
	}
}

// requester builds the HTTP request for a call.
type requester func(ctx context.Context, c call) (*http.Request, error)

// openLoop sends sched on its schedule over at most conns connections,
// whatever the daemon's progress: a request waits for a free
// connection rather than being skipped, and its latency counts from
// its due time. After the last send it drains the requests in flight;
// those still unanswered drainCap later fail.
func openLoop(client *http.Client, build requester, sched []call, conns int, drainCap time.Duration) []callResult {
	results := make([]callResult, len(sched))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	work := make(chan int, len(sched)) // sized to the number of sends
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body bytes.Buffer // reused, so reading replies allocates little
			for i := range work {
				r := &results[i]
				r.sent = time.Since(t0)
				r.status, r.reply, r.err = do(ctx, client, build, sched[i], &body)
				r.done = time.Since(t0)
			}
		}()
	}
	for i, c := range sched {
		if wait := c.due - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		results[i].dispatched = time.Since(t0)
		work <- i
	}
	close(work)
	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(drainCap):
		cancel() // remaining calls fail as unanswered at drain
		<-drained
	}
	return results
}

// do sends one call and reads its reply into body.
func do(ctx context.Context, client *http.Client, build requester, c call, body *bytes.Buffer) (int, reply, error) {
	req, err := build(ctx, c)
	if err != nil {
		return 0, reply{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, reply{}, err
	}
	body.Reset()
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, reply{}, fmt.Errorf("reading body: %w", err)
	}
	var r reply
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body.Bytes(), &r); err != nil {
			return resp.StatusCode, reply{}, fmt.Errorf("decoding body: %w", err)
		}
	}
	return resp.StatusCode, r, nil
}

// post builds a POST of body with the given content type.
func post(ctx context.Context, url, contentType string, body []byte) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	return req, nil
}

// lateP99 is the generator's own lateness: p99 of dispatch − due.
func lateP99(sched []call, res []callResult) float64 {
	late := make([]float64, len(sched))
	for i := range sched {
		late[i] = float64(res[i].dispatched-sched[i].due) / float64(time.Millisecond)
	}
	return stat.Percentile(late, 99)
}

// sloSearch finds the highest ladder step whose p99 meets sloLimitMS,
// spending probes probes of probeDur each. It brackets the limit
// between a passing and a failing step, starting from 0.79× and 1×
// guess and stepping both ends down or up by that factor while both
// pass or both fail, then narrows the bracket by false position: each
// probe goes where the line through the ends' log p99 crosses the
// limit. Near a server's capacity p99 climbs steeply with the rate, so
// a bracket much wider than this puts the interpolated crossing far
// from the probes and makes the answer noisy. The answer is
// the last step at or below that crossing for the final bracket, so
// it rests on the two probes nearest the limit rather than on one
// noisy pass-or-fail decision. probe returns a probe's p99 in ms
// (+Inf if any call failed). The second result lists the probes.
func sloSearch(guess float64, probes int, probeDur time.Duration, probe func(rate float64, d time.Duration) float64) (float64, string) {
	const (
		capMS = 2000 // failed or saturated probes count as this late
		span  = 8    // ladder steps per bracket step (1.03^8 ≈ 1.27)
	)
	desc := "slo probes (rate/s:p99 ms):"
	used := 0
	at := func(i int) float64 {
		used++
		p := probe(ladder(i), probeDur)
		desc += fmt.Sprintf(" %.1f:%.2f", ladder(i), p)
		return math.Min(p, capMS)
	}
	// cross returns the fractional ladder index where the line through
	// (lo, log plo) and (hi, log phi) meets the limit.
	cross := func(lo int, plo float64, hi int, phi float64) float64 {
		t := (math.Log(sloLimitMS) - math.Log(plo)) / (math.Log(phi) - math.Log(plo))
		return float64(lo) + t*float64(hi-lo)
	}
	hi := ladderIndex(guess)
	lo := max(0, hi-span)
	plo, phi := at(lo), 0.0
	for plo > sloLimitMS && used < probes && lo > 0 {
		hi, phi = lo, plo
		lo = max(0, lo-span)
		plo = at(lo)
	}
	if plo > sloLimitMS {
		return ladder(lo - 1), desc + " (none passed)"
	}
	if phi == 0 && used < probes {
		phi = at(hi)
	}
	for phi <= sloLimitMS && used < probes {
		lo, plo = hi, phi
		hi += span
		phi = at(hi)
	}
	if phi <= sloLimitMS {
		return ladder(hi), desc + " (all passed)"
	}
	for used < probes && hi-lo > 1 {
		mid := int(math.Round(cross(lo, plo, hi, phi)))
		mid = min(max(mid, lo+1), hi-1)
		if p := at(mid); p <= sloLimitMS {
			lo, plo = mid, p
		} else {
			hi, phi = mid, p
		}
	}
	best := int(math.Floor(cross(lo, plo, hi, phi)))
	return ladder(min(max(best, lo), hi-1)), desc
}

// probeP99 is a probe's p99 latency from due time, with every failed
// call counted as infinitely late. A growing backlog shows as late
// answers at the end of the probe and so raises the same figure.
func probeP99(sched []call, res []callResult) float64 {
	lat := make([]float64, len(sched))
	for i := range sched {
		lat[i] = res[i].latencyMS(sched[i])
	}
	return stat.Percentile(lat, 99)
}
