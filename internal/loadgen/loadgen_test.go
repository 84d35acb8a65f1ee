package loadgen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// quickCfg pins testing/quick's own source so every property run draws
// the same parameter sets — a property that holds, holds on every CI run.
func quickCfg(maxCount int) *quick.Config {
	return &quick.Config{Rand: rand.New(rand.NewSource(7)), MaxCount: maxCount}
}

// Property: a Poisson stream's empirical mean inter-arrival gap matches
// 1e9/rate within tolerance, for any seed and a wide range of rates.
func TestQuickPoissonMean(t *testing.T) {
	const draws = 20000
	prop := func(seed uint64, rateRaw uint16) bool {
		rate := 1e3 + float64(rateRaw)*15 // ~1e3..1e6 ops/sec
		a := NewArrivals(seed, rate)
		var last uint64
		for i := 0; i < draws; i++ {
			last = a.Next()
		}
		gotMean := float64(last) / draws
		wantMean := 1e9 / rate
		// CLT: relative error of the mean of n exp draws ~ 1/sqrt(n);
		// 5 sigma at n=20000 is ~3.5%.
		if rel := math.Abs(gotMean-wantMean) / wantMean; rel > 0.05 {
			t.Logf("seed=%d rate=%.0f: mean gap %.1fns want %.1fns (rel %.3f)", seed, rate, gotMean, wantMean, rel)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(30)); err != nil {
		t.Fatal(err)
	}
}

// Property: the same seed replays the identical arrival schedule and the
// identical Zipf rank sequence — determinism is what makes a perf
// regression bisectable.
func TestQuickSeededReplayIdentical(t *testing.T) {
	prop := func(seed uint64) bool {
		a1, a2 := NewArrivals(seed, 5e5), NewArrivals(seed, 5e5)
		z1 := NewZipf(NewRand(seed), 512, 0.99)
		z2 := NewZipf(NewRand(seed), 512, 0.99)
		for i := 0; i < 4096; i++ {
			if a1.Next() != a2.Next() || z1.Next() != z2.Next() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(20)); err != nil {
		t.Fatal(err)
	}
}

// Property: Zipf head frequencies match the analytic distribution. The
// top ranks (plus an aggregated tail bucket) are checked with a
// chi-squared statistic against a generous critical value — catching a
// sampler that is systematically wrong, not one that is merely random.
func TestQuickZipfHeadChiSquared(t *testing.T) {
	const (
		draws = 50000
		head  = 16
		// df = head (head ranks + tail bucket - 1); chi2 0.999 quantile at
		// df=16 is 39.3. The margin keeps a correct sampler's worst pinned
		// draw comfortably inside.
		bound = 60.0
	)
	prop := func(seed uint64, sRaw uint8, nRaw uint8) bool {
		s := float64(sRaw%150) / 100.0 // skews 0.00..1.49, incl. the 0.99 regime
		n := 64 + int(nRaw)*8          // keyspaces 64..2104
		z := NewZipf(NewRand(seed), n, s)
		counts := make([]int, head+1)
		for i := 0; i < draws; i++ {
			k := z.Next()
			if k < head {
				counts[k]++
			} else {
				counts[head]++
			}
		}
		chi2 := 0.0
		tailP := 1.0
		for k := 0; k < head; k++ {
			exp := z.Prob(k) * draws
			tailP -= z.Prob(k)
			d := float64(counts[k]) - exp
			chi2 += d * d / exp
		}
		if exp := tailP * draws; exp > 0 {
			d := float64(counts[head]) - exp
			chi2 += d * d / exp
		}
		if chi2 > bound {
			t.Logf("seed=%d s=%.2f n=%d: chi2=%.1f > %.1f", seed, s, n, chi2, bound)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(25)); err != nil {
		t.Fatal(err)
	}
}

// Property: Zipf probabilities are a valid, monotone-nonincreasing
// distribution, and every draw is in range.
func TestQuickZipfDistributionShape(t *testing.T) {
	prop := func(seed uint64, sRaw uint8, nRaw uint8) bool {
		s := float64(sRaw%200) / 100.0
		n := 1 + int(nRaw)
		z := NewZipf(NewRand(seed), n, s)
		sum := 0.0
		for k := 0; k < n; k++ {
			p := z.Prob(k)
			if p < 0 || (k > 0 && p > z.Prob(k-1)+1e-12) {
				return false
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		for i := 0; i < 256; i++ {
			if k := z.Next(); k < 0 || k >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(40)); err != nil {
		t.Fatal(err)
	}
}

// Replay at trivially low load: no queueing, sojourn == service, achieved
// tracks the schedule.
func TestReplayLowLoadNoQueueing(t *testing.T) {
	ops := make([]Op, 100)
	for i := range ops {
		ops[i] = Op{ArrivalNS: uint64(i) * 10000, Server: i % 4, ServiceNS: 500}
	}
	achieved, h := Replay(ops, 4)
	if got := h.Percentile(99); got != 500 {
		t.Fatalf("p99 sojourn %v, want 500 (no queueing at low load)", got)
	}
	span := float64(99*10000 + 500)
	want := 100 / span * 1e9
	if math.Abs(achieved-want)/want > 1e-9 {
		t.Fatalf("achieved %v, want %v", achieved, want)
	}
}

// Replay past saturation: arrivals at twice the service rate must queue,
// achieved throughput pins at capacity, and Knee flags the overloaded row.
func TestReplaySaturationKnee(t *testing.T) {
	mkOps := func(gapNS uint64) []Op {
		ops := make([]Op, 2000)
		for i := range ops {
			ops[i] = Op{ArrivalNS: uint64(i) * gapNS, Server: 0, ServiceNS: 1000}
		}
		return ops
	}
	low := MeasureRow(1, 1e9/2000.0, mkOps(2000), 1) // offered = capacity/2
	high := MeasureRow(1, 1e9/500.0, mkOps(500), 1)  // offered = 2x capacity
	if low.AchievedOpsPerSec < 0.95*low.OfferedLoad {
		t.Fatalf("low load: achieved %.0f below 0.95x offered %.0f", low.AchievedOpsPerSec, low.OfferedLoad)
	}
	capacity := 1e9 / 1000.0
	if high.AchievedOpsPerSec > 1.05*capacity {
		t.Fatalf("overload achieved %.0f exceeds capacity %.0f", high.AchievedOpsPerSec, capacity)
	}
	if high.P99NS <= low.P99NS {
		t.Fatalf("overload p99 %d not above low-load p99 %d", high.P99NS, low.P99NS)
	}
	rows := []Row{low, high}
	if got := Knee(rows); got != 1 {
		t.Fatalf("Knee = %d, want 1", got)
	}
}
