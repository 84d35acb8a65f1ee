package loadgen

import "math"

// Zipf draws ranks from a Zipfian popularity distribution over
// {0, ..., n-1}: P(k) proportional to 1/(k+1)^s. Unlike math/rand's Zipf
// it accepts ANY skew s >= 0 — the YCSB-standard s = 0.99 the scaling
// experiments need is below the s > 1 floor of the standard library's
// rejection sampler — by inverting a precomputed CDF. Rank 0 is the
// hottest key.
//
// A draw u in [0, 1) returns the first k with cdf[k] > u. A guide table
// (the cutpoint method, Chen & Asau 1974) narrows the search: with m the
// smallest power of two >= n, guide[j] is the first k with cdf[k] > j/m,
// and guide[m] = n-1. For j = floor(u*m), j/m <= u < (j+1)/m, so the
// answer is at least guide[j] (every earlier cdf is <= j/m <= u) and at
// most guide[j+1] (whose cdf exceeds (j+1)/m > u, or is cdf[n-1] = 1).
// Since m is a power of two, u*m and j/m are exact in float64, and a
// binary search of that bucket returns the very rank a search of the
// whole CDF would: same seed, same ranks.
type Zipf struct {
	r     *Rand
	cdf   []float64 // cdf[k] = P(rank <= k); cdf[n-1] == 1
	guide []int32   // m+1 entries, m = len(guide)-1 a power of two
	m     float64   // m, as the scale that turns u into a bucket
}

// NewZipf builds a sampler over n ranks with exponent s, drawing from r.
// s = 0 is uniform.
func NewZipf(r *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("loadgen: Zipf needs n > 0")
	}
	if n > math.MaxInt32 {
		panic("loadgen: Zipf needs n <= MaxInt32")
	}
	if s < 0 || math.IsNaN(s) {
		panic("loadgen: Zipf needs s >= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	cdf[n-1] = 1 // pin against rounding so search never falls off the end
	m := 1
	for m < n {
		m <<= 1
	}
	guide := make([]int32, m+1)
	k := 0
	for j := 0; j < m; j++ {
		// cdf[n-1] = 1 > j/m stops k at n-1 at the latest.
		t := float64(j) / float64(m)
		for cdf[k] <= t {
			k++
		}
		guide[j] = int32(k)
	}
	guide[m] = int32(n - 1)
	return &Zipf{r: r, cdf: cdf, guide: guide, m: float64(m)}
}

// Next draws one rank.
func (z *Zipf) Next() int { return z.rank(z.r.Float64()) }

// rank returns the first k with cdf[k] > u, for u in [0, 1), searching
// only guide[j]..guide[j+1].
func (z *Zipf) rank(u float64) int {
	j := int(u * z.m)
	lo, hi := int(z.guide[j]), int(z.guide[j+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
