// Package loadgen is the rack's open-loop workload engine: Poisson
// arrivals at a configurable offered load, Zipfian key popularity with a
// pluggable skew, and latency-under-load accounting.
//
// Open-loop vs closed-loop matters for every throughput claim this repo
// makes. A closed-loop harness (N workers, each issuing its next request
// only after the last reply) hides queueing: when the server slows down
// the generator slows down with it, so reported latency stays flat right
// up to saturation and the knee never shows. An open-loop generator fixes
// the ARRIVAL schedule up front — requests keep arriving whether or not
// the server has caught up — so queueing delay lands in the measured
// sojourn time, which is the number a tail-latency SLO is actually about
// (the coordinated-omission lesson).
//
// Everything is deterministic: streams are seeded splitmix64, so the same
// seed replays the identical arrival schedule and key sequence, and a
// perf regression bisects against a byte-identical workload.
// TestZipfGoldenRanks pins the rank stream of every sampler a program
// builds by hash, so a sampler change that moves one rank fails there.
package loadgen

import "math"

// Rand is a splitmix64 PRNG — tiny, seedable, and stable across runs and
// platforms, which is what makes workload streams replayable. Not safe
// for concurrent use; give each stream its own.
type Rand struct{ state uint64 }

// NewRand seeds a stream. Distinct seeds give independent streams.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next raw 64-bit draw.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("loadgen: Intn needs n > 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Arrivals generates a Poisson arrival process: exponential inter-arrival
// gaps at rate opsPerSec, timestamped in virtual nanoseconds. The
// schedule depends only on the seed and the rate.
type Arrivals struct {
	r         *Rand
	meanGapNS float64
	nowNS     float64
}

// NewArrivals creates a Poisson stream offering opsPerSec (in ops per
// second of virtual time).
func NewArrivals(seed uint64, opsPerSec float64) *Arrivals {
	if opsPerSec <= 0 {
		panic("loadgen: offered load must be positive")
	}
	return &Arrivals{r: NewRand(seed), meanGapNS: 1e9 / opsPerSec}
}

// Next returns the next arrival's virtual-ns timestamp. Successive calls
// are non-decreasing.
func (a *Arrivals) Next() uint64 {
	// Exponential gap by inversion; 1-U keeps the argument in (0, 1].
	a.nowNS += -a.meanGapNS * math.Log(1-a.r.Float64())
	return uint64(a.nowNS)
}
