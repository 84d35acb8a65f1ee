// Package metrics provides the small measurement toolkit the experiment
// harnesses share: latency histograms with percentile extraction, and
// simple tabular reporting matching the rows the paper prints.
package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
)

// Histogram records latency samples and reports summary statistics. By
// default it stores raw samples (experiments here record at most a few
// million), which keeps percentiles exact; long-running recorders (the
// scheduler) should bound memory with SetReservoir. Safe for concurrent
// use.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	sum     float64
	total   int
	sorted  bool

	cap int // 0 = unbounded (exact percentiles)
	rng *rand.Rand
}

// NewHistogram returns an empty histogram with exact percentiles.
func NewHistogram() *Histogram { return &Histogram{} }

// SetReservoir bounds the histogram to cap retained samples using
// Vitter's Algorithm R: each of the first cap samples is kept, and the
// i'th sample thereafter replaces a uniformly random retained one with
// probability cap/i. Count and Mean stay exact (they track every
// sample); Percentile, Min and Max become reservoir estimates. seed
// makes runs reproducible. cap <= 0 restores unbounded exact mode.
func (h *Histogram) SetReservoir(cap int, seed int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if cap <= 0 {
		h.cap, h.rng = 0, nil
		return
	}
	h.cap = cap
	h.rng = rand.New(rand.NewSource(seed))
	if len(h.samples) > cap {
		h.samples = h.samples[:cap]
		h.sorted = false
	}
}

// Record adds one sample (any unit; callers keep units consistent).
func (h *Histogram) Record(v float64) {
	h.mu.Lock()
	h.total++
	h.sum += v
	if h.cap > 0 && len(h.samples) >= h.cap {
		if j := h.rng.Intn(h.total); j < h.cap {
			h.samples[j] = v
			h.sorted = false
		}
	} else {
		h.samples = append(h.samples, v)
		h.sorted = false
	}
	h.mu.Unlock()
}

// Mean returns the arithmetic mean, or 0 with no samples. It is exact
// even when a reservoir cap is set.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Percentile returns the p'th percentile (0 < p <= 100) by nearest-rank,
// or 0 with no samples.
func (h *Histogram) Percentile(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return h.samples[rank-1]
}

// Reset discards all samples (the reservoir configuration persists).
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.samples = h.samples[:0]
	h.sum = 0
	h.total = 0
	h.sorted = false
	h.mu.Unlock()
}

// Summary is a point-in-time digest of a histogram.
type Summary struct {
	Mean, P50, P99 float64
}

// Summarize extracts a Summary.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Mean: h.Mean(),
		P50:  h.Percentile(50),
		P99:  h.Percentile(99),
	}
}

// FormatNS renders a nanosecond quantity with an adaptive unit, e.g.
// "1.75us" or "21.07s".
func FormatNS(ns float64) string {
	switch {
	case ns < 1e3:
		return fmt.Sprintf("%.0fns", ns)
	case ns < 1e6:
		return fmt.Sprintf("%.2fus", ns/1e3)
	case ns < 1e9:
		return fmt.Sprintf("%.2fms", ns/1e6)
	default:
		return fmt.Sprintf("%.2fs", ns/1e9)
	}
}

// Table accumulates aligned rows for experiment output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends one row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// NumRows returns how many rows have been added (tests assert every
// experiment produced a non-empty table).
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table with space-aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.header))
	for i, hd := range t.header {
		width[i] = len(hd)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var out string
	line := func(cells []string) string {
		s := ""
		for i := range t.header {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			s += fmt.Sprintf("%-*s", width[i]+2, c)
		}
		return s + "\n"
	}
	out += line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	out += line(sep)
	for _, r := range t.rows {
		out += line(r)
	}
	return out
}
