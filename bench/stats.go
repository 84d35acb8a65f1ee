package main

import (
	"math"
	"slices"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count), or 0 for no samples. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// spread is (max-min)/median of xs: how far apart repetitions of the same
// measurement landed. 0 for fewer than two samples.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	m := median(append([]float64(nil), xs...))
	if m == 0 {
		return 0
	}
	return (hi - lo) / m
}

// percentile returns the p'th percentile (0 < p < 100) of sorted
// whole-nanosecond samples. Simulated latencies are discrete — a workload
// has a handful of cost levels and thousands of ops tied on each — so the
// nearest-rank value alone cannot move until a whole level does. Ties are
// therefore resolved by the grouped-data formula: a level v holding ranks
// [below, below+equal) is spread over [v-0.5, v+0.5), and a rank r inside
// it reads v-0.5+(r-below)/equal. The integer part is the nearest-rank
// level; the fraction says how deep into the level the rank sits, so a
// shift in the share of ops at or under the level shows before the level
// itself changes.
func percentile(sorted []uint64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := p / 100 * float64(n)
	i := int(r)
	if i >= n {
		i = n - 1
	}
	v := sorted[i]
	below := sort.Search(n, func(j int) bool { return sorted[j] >= v })
	equal := sort.Search(n, func(j int) bool { return sorted[j] > v }) - below
	return float64(v) - 0.5 + (r-float64(below))/float64(equal)
}

func sortU64(xs []uint64) []uint64 {
	slices.Sort(xs)
	return xs
}

func sum(xs []uint64) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s
}

func mean(xs []uint64) float64 { return ratio(sum(xs), float64(len(xs))) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
