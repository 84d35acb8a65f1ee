package loadgen

// Prob returns the analytic probability of rank k — the expected head
// frequencies the chi-squared property test checks draws against.
func (z *Zipf) Prob(k int) float64 {
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}
