package ds

// Levels returns the number of 8-bit levels.
func (t *RadixTree) Levels() int { return t.levels }

// Cap returns the ring's slot capacity.
func (r *SPSCRing) Cap() uint64 { return r.capacity }
