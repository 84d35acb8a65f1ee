package fabric

import "sync/atomic"

// NodeStats holds a node's memory-traffic counters. Counters are updated
// with atomics; read a consistent view via snapshot.
type NodeStats struct {
	Loads            atomic.Uint64
	Stores           atomic.Uint64
	Hits             atomic.Uint64
	Misses           atomic.Uint64
	WriteBacks       atomic.Uint64
	Invalidates      atomic.Uint64
	Atomics          atomic.Uint64
	Fences           atomic.Uint64
	BulkBytesRead    atomic.Uint64
	BulkBytesWritten atomic.Uint64
	VirtualNS        atomic.Uint64
	// FaultsInjected counts injector hits this node observed on its
	// write-back path: dropped lines count one each, plus one per
	// corrupted word.
	FaultsInjected atomic.Uint64
}

// NodeStatsSnapshot is a point-in-time copy of NodeStats.
type NodeStatsSnapshot struct {
	Loads            uint64
	Stores           uint64
	Hits             uint64
	Misses           uint64
	WriteBacks       uint64
	Invalidates      uint64
	Atomics          uint64
	Fences           uint64
	BulkBytesRead    uint64
	BulkBytesWritten uint64
	VirtualNS        uint64
	FaultsInjected   uint64
}

// Delta returns the traffic accrued since prev was taken: s - prev,
// field-wise. Experiments snapshot before and after a phase and report
// the delta instead of process-lifetime totals.
func (s NodeStatsSnapshot) Delta(prev NodeStatsSnapshot) NodeStatsSnapshot {
	return NodeStatsSnapshot{
		Loads:            s.Loads - prev.Loads,
		Stores:           s.Stores - prev.Stores,
		Hits:             s.Hits - prev.Hits,
		Misses:           s.Misses - prev.Misses,
		WriteBacks:       s.WriteBacks - prev.WriteBacks,
		Invalidates:      s.Invalidates - prev.Invalidates,
		Atomics:          s.Atomics - prev.Atomics,
		Fences:           s.Fences - prev.Fences,
		BulkBytesRead:    s.BulkBytesRead - prev.BulkBytesRead,
		BulkBytesWritten: s.BulkBytesWritten - prev.BulkBytesWritten,
		VirtualNS:        s.VirtualNS - prev.VirtualNS,
		FaultsInjected:   s.FaultsInjected - prev.FaultsInjected,
	}
}

func (s *NodeStats) snapshot() NodeStatsSnapshot {
	return NodeStatsSnapshot{
		Loads:            s.Loads.Load(),
		Stores:           s.Stores.Load(),
		Hits:             s.Hits.Load(),
		Misses:           s.Misses.Load(),
		WriteBacks:       s.WriteBacks.Load(),
		Invalidates:      s.Invalidates.Load(),
		Atomics:          s.Atomics.Load(),
		Fences:           s.Fences.Load(),
		BulkBytesRead:    s.BulkBytesRead.Load(),
		BulkBytesWritten: s.BulkBytesWritten.Load(),
		VirtualNS:        s.VirtualNS.Load(),
		FaultsInjected:   s.FaultsInjected.Load(),
	}
}

func (s *NodeStats) reset() {
	s.Loads.Store(0)
	s.Stores.Store(0)
	s.Hits.Store(0)
	s.Misses.Store(0)
	s.WriteBacks.Store(0)
	s.Invalidates.Store(0)
	s.Atomics.Store(0)
	s.Fences.Store(0)
	s.BulkBytesRead.Store(0)
	s.BulkBytesWritten.Store(0)
	s.VirtualNS.Store(0)
	s.FaultsInjected.Store(0)
}

// RackStats aggregates every node's counters.
func (f *Fabric) RackStats() NodeStatsSnapshot {
	var agg NodeStatsSnapshot
	for _, n := range f.nodes {
		s := n.Stats()
		agg.Loads += s.Loads
		agg.Stores += s.Stores
		agg.Hits += s.Hits
		agg.Misses += s.Misses
		agg.WriteBacks += s.WriteBacks
		agg.Invalidates += s.Invalidates
		agg.Atomics += s.Atomics
		agg.Fences += s.Fences
		agg.BulkBytesRead += s.BulkBytesRead
		agg.BulkBytesWritten += s.BulkBytesWritten
		agg.VirtualNS += s.VirtualNS
		agg.FaultsInjected += s.FaultsInjected
	}
	return agg
}
