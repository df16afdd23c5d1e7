package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"prefcolor/perfbench/stat"
)

// derive maps the benchmark seed, a stream name and an index to an
// independent generator seed (splitmix64 finalizer), so each workload
// and each shard draws from its own sequence.
func derive(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ h.Sum64() ^ uint64(i+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

// newRand returns a generator on the derived seed.
func newRand(seed int64, stream string) *rand.Rand {
	return rand.New(rand.NewSource(derive(seed, stream, 0)))
}

// shardedSetup runs the set-up of each shard, timing each, and
// returns the set-up time as shards × the median shard time, which
// keeps a one-off stall in one shard out of setup_s.
func shardedSetup(shards int, setup func(shard int) error) (time.Duration, error) {
	times := make([]float64, shards)
	for s := 0; s < shards; s++ {
		t0 := time.Now()
		if err := setup(s); err != nil {
			return 0, err
		}
		times[s] = time.Since(t0).Seconds()
	}
	return time.Duration(float64(shards) * stat.Median(times) * float64(time.Second)), nil
}

// ladder is the fixed rate ladder the SLO search climbs: from 10/s in
// steps of 3%, so adjacent steps differ by less than the 5% the
// bound allows for a flip.
func ladder(i int) float64 { return 10 * math.Pow(1.03, float64(i)) }

// ladderIndex returns the highest ladder step at or below rate.
func ladderIndex(rate float64) int {
	if rate <= 10 {
		return 0
	}
	return int(math.Floor(math.Log(rate/10) / math.Log(1.03)))
}

// sloLimitMS is the p99 latency limit the slo_rps metric holds every
// workload to.
const sloLimitMS = 150
