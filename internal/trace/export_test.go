package trace

import "flacos/internal/fabric"

// SnapshotNode is snapshotNodeLocked under the collector's lock.
func (c *Collector) SnapshotNode(reader *fabric.Node, node int) NodeSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotNodeLocked(reader, node)
}

// Dropped returns how many events this writer discarded ring-full, as its
// ring's header counts them.
func (w *Writer) Dropped() uint64 {
	if w == nil {
		return 0
	}
	return w.n.AtomicLoad64(w.hdr.Add(offDropped))
}

// Cap returns the per-node ring capacity in events.
func (r *Recorder) Cap() uint64 { return r.cap }
