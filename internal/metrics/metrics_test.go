package metrics

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Record(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := h.Mean(); got != 50.5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := h.Percentile(50); got != 50 {
		t.Fatalf("P50 = %v", got)
	}
	if got := h.Percentile(99); got != 99 {
		t.Fatalf("P99 = %v", got)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	s := h.Summarize()
	if h.Count() != 100 || s.P50 != 50 {
		t.Fatalf("Summary = %+v", s)
	}
	h.Reset()
	if h.Count() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestHistogramRecordAfterPercentile(t *testing.T) {
	h := NewHistogram()
	h.Record(5)
	_ = h.Percentile(50) // sorts
	h.Record(1)          // must re-sort on next query
	if got := h.Percentile(1); got != 1 {
		t.Fatalf("P1 = %v, want 1", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Record(1)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d", h.Count())
	}
}

func TestFormatNS(t *testing.T) {
	cases := map[float64]string{
		500:     "500ns",
		1750:    "1.75us",
		2.5e6:   "2.50ms",
		21.07e9: "21.07s",
	}
	for in, want := range cases {
		if got := FormatNS(in); got != want {
			t.Errorf("FormatNS(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("op", "latency")
	tb.AddRow("set", "1.75us")
	tb.AddRow("get-with-long-name", "2.40us")
	out := tb.String()
	if !strings.Contains(out, "op") || !strings.Contains(out, "get-with-long-name") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
}

func TestReservoirMatchesExactPercentiles(t *testing.T) {
	// Feed identical skewed streams to an exact histogram and a capped
	// one; the reservoir's percentile estimates must land close to the
	// exact values while holding ~25x fewer samples.
	const n, cap = 100_000, 4096
	exact := NewHistogram()
	capped := NewHistogram()
	capped.SetReservoir(cap, 42)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		// Log-normal-ish latency shape: a long tail over a tight body.
		v := math.Exp(rng.NormFloat64()) * 1000
		exact.Record(v)
		capped.Record(v)
	}
	if got := capped.Count(); got != n {
		t.Fatalf("capped Count = %d, want %d (count stays exact)", got, n)
	}
	if em, cm := exact.Mean(), capped.Mean(); math.Abs(em-cm) > 1e-6*em {
		t.Fatalf("capped Mean = %v, exact = %v (mean stays exact)", cm, em)
	}
	for _, p := range []float64{50, 90, 99} {
		e, c := exact.Percentile(p), capped.Percentile(p)
		if diff := math.Abs(e-c) / e; diff > 0.10 {
			t.Errorf("p%.0f: reservoir %v vs exact %v (%.1f%% off, want <10%%)", p, c, e, diff*100)
		}
	}
}

func TestReservoirUncappedByDefaultAndRestorable(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Record(float64(i))
	}
	if got := h.Percentile(99); got != 98 {
		t.Fatalf("exact p99 = %v, want 98", got)
	}
	h.SetReservoir(10, 1)
	h.Record(1000) // over cap: must replace, not grow
	if got := h.Count(); got != 101 {
		t.Fatalf("Count = %d, want 101", got)
	}
	h.SetReservoir(0, 0) // back to exact mode
	h.Reset()
	for i := 0; i < 100; i++ {
		h.Record(float64(i))
	}
	if got := h.Percentile(99); got != 98 {
		t.Fatalf("restored exact p99 = %v, want 98", got)
	}
}
