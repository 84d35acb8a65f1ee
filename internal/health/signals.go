package health

import (
	"sync/atomic"

	"flacos/internal/fabric"
)

// Signals is one observation window's worth of raw anomaly inputs for a
// node, sampled by the node itself (the owner is the only party that
// can read its own counters without fabric traffic).
type Signals struct {
	// Ops and VirtualNS are window deltas of the node's fabric traffic;
	// VirtualNS/Ops is the node's own average ns-per-op, the latency
	// drift signal. A degraded link inflates it directly (every global
	// op pays the extra hops).
	Ops       uint64
	VirtualNS uint64
	// Errors is the window's error count: injected faults observed on
	// the node's write-back path plus whatever external feeds (the
	// reliability scrubber, torture attribution) charged to the node.
	Errors uint64
	// LinkHops is the node's current extra fabric hops — the one signal
	// that is a direct reading rather than a rate.
	LinkHops uint64
}

// SignalSource produces one Signals sample per observation window.
// Implementations must be safe to call from the health agent goroutine.
type SignalSource interface {
	Sample() Signals
}

// NodeSource is the standard SignalSource for a live rack node: fabric
// traffic deltas from the node's own stats, injected-fault counts, link
// degradation, plus an external error feed for layers (the reliability
// scrubber) that detect a node's corruption somewhere other than the
// node itself.
type NodeSource struct {
	n *fabric.Node

	prev     fabric.NodeStatsSnapshot
	extErr   atomic.Uint64
	prevEErr uint64
}

// NewNodeSource builds a source for n.
func NewNodeSource(n *fabric.Node) *NodeSource {
	return &NodeSource{n: n, prev: n.Stats()}
}

// AddError charges one externally-detected error to the node — the
// scrubber attribution path: a scrub pass that repairs a corrupt region
// homed on (or written by) this node calls AddError so the corruption
// shows up in the node's error EWMA even though the node itself never
// observed the fault.
func (s *NodeSource) AddError() { s.extErr.Add(1) }

// Sample implements SignalSource. Not reentrant: the health agent is
// the only caller.
func (s *NodeSource) Sample() Signals {
	cur := s.n.Stats()
	d := cur.Delta(s.prev)
	s.prev = cur
	ext := s.extErr.Load()
	extD := ext - s.prevEErr
	s.prevEErr = ext
	return Signals{
		Ops:       d.Loads + d.Stores + d.Atomics,
		VirtualNS: d.VirtualNS,
		Errors:    d.FaultsInjected + extD,
		LinkHops:  uint64(s.n.LinkDegradation()),
	}
}
