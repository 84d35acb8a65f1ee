package loadgen

// Prob returns the analytic probability of rank k — the expected head
// frequencies the chi-squared property test checks draws against.
func (z *Zipf) Prob(k int) float64 {
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}

// searchCDF is the sampler's inversion without the guide table: a binary
// search of the whole CDF for the first k with cdf[k] > u. The exactness
// test holds Next to it draw for draw.
func (z *Zipf) searchCDF(u float64) int {
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
