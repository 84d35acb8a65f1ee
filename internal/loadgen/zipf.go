package loadgen

import "math"

// Zipf draws ranks from a Zipfian popularity distribution over
// {0, ..., n-1}: P(k) proportional to 1/(k+1)^s. Unlike math/rand's Zipf
// it accepts ANY skew s >= 0 — the YCSB-standard s = 0.99 the scaling
// experiments need is below the s > 1 floor of the standard library's
// rejection sampler — by inverting a precomputed CDF with binary search.
// Rank 0 is the hottest key.
type Zipf struct {
	r   *Rand
	cdf []float64 // cdf[k] = P(rank <= k); cdf[n-1] == 1
}

// NewZipf builds a sampler over n ranks with exponent s, drawing from r.
// s = 0 is uniform.
func NewZipf(r *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("loadgen: Zipf needs n > 0")
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
	return &Zipf{r: r, cdf: cdf}
}

// Next draws one rank.
func (z *Zipf) Next() int {
	u := z.r.Float64()
	// First k with cdf[k] > u.
	lo, hi := 0, len(z.cdf)-1
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
