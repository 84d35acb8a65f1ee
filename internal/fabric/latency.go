package fabric

// LatencyMode selects how the latency model charges memory-operation costs.
type LatencyMode int

const (
	// LatencyOff charges nothing. Unit tests use this.
	LatencyOff LatencyMode = iota
	// LatencyAccount accumulates virtual nanoseconds in per-node counters
	// without delaying execution. Deterministic experiments use this.
	LatencyAccount
)

// LatencyModel describes the cost, in nanoseconds, of the rack's memory
// operations. The defaults approximate published CXL/HCCS numbers: local
// DRAM ~100 ns, one-hop global memory 3-6x that, fabric atomics costlier
// still because they round-trip to the memory device.
type LatencyModel struct {
	Mode LatencyMode

	// LocalNS is the cost of a node-local memory access (a cache hit in the
	// simulated node cache is considered local).
	LocalNS int
	// GlobalNS is the base cost of reaching home global memory (a cache
	// miss, a write-back, or one line of a bulk transfer).
	GlobalNS int
	// HopNS is added per interconnect hop between the node and home memory.
	HopNS int
	// AtomicNS is the cost of one fabric atomic (always reaches home).
	AtomicNS int
	// FenceNS is the cost of a memory barrier.
	FenceNS int
	// PerLineNS is the incremental cost per additional cache line in a bulk
	// transfer after the first (models pipelined line fetches).
	PerLineNS int
	// ColdNS is the surcharge for one access that reaches the rack's cold
	// (capacity / modeled-persistent) memory tier instead of the premium
	// global tier: a second device hop plus media latency, in the regime of
	// NVM or far-memory numbers rather than DRAM. Charged on top of the
	// ordinary global cost by consumers that place pages in the cold tier
	// (memsys demotion); the fabric itself has no per-line cold state.
	ColdNS int
}

// DefaultLatency returns the latency model used by the experiment harness:
// accounting only, so results are deterministic.
func DefaultLatency() LatencyModel {
	return LatencyModel{
		Mode:      LatencyAccount,
		LocalNS:   100,
		GlobalNS:  450,
		HopNS:     80,
		AtomicNS:  600,
		FenceNS:   30,
		PerLineNS: 20,   // pipelined bulk: ~3 GB/s per-node streaming
		ColdNS:    1350, // capacity tier: ~3x the one-hop global round trip
	}
}

// charge applies the latency model for a cost of ns nanoseconds on behalf of
// node n: it accumulates virtual time unless the model is off.
func (n *Node) charge(ns int) {
	if ns <= 0 || n.fab.lat.Mode == LatencyOff {
		return
	}
	n.stats.VirtualNS.Add(uint64(ns))
}

// ChargeColdAccess charges node n the cold-tier surcharge for one access
// touching lines cache lines: ColdNS for the media round trip plus the
// usual pipelined per-line cost for lines beyond the first. Callers charge
// this in addition to the ordinary global cost, mirroring how a far-memory
// access still traverses the interconnect before reaching the device.
func (n *Node) ChargeColdAccess(lines int) {
	c := n.fab.lat.ColdNS
	if lines > 1 {
		c += (lines - 1) * n.fab.lat.PerLineNS
	}
	n.charge(c)
}

// globalCost returns the modeled cost of one home-memory access from node n,
// including hop costs, plus PerLineNS for each line beyond the first.
func (n *Node) globalCost(lines int) int {
	c := n.fab.lat.GlobalNS + n.totalHops()*n.fab.lat.HopNS
	if lines > 1 {
		c += (lines - 1) * n.fab.lat.PerLineNS
	}
	return c
}
