package metrics

// Count returns the number of recorded samples (exact even when a
// reservoir cap is set).
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() float64 { return h.Percentile(0.0001) }

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() float64 { return h.Percentile(100) }
