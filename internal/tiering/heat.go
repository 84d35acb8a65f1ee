// Package tiering closes the paper's placement loop: a rack-wide daemon
// that watches per-page access heat flowing out of the MMU translate path
// and moves pages between the rack's three memory tiers — node-local DRAM,
// premium ("warm") global memory, and the cold capacity/persistent tier —
// so the hot working set sits close to its dominant accessors while cold
// pages stop occupying premium capacity.
//
// The package splits into mechanism and policy:
//
//   - HeatMap is the sampling mechanism: a sharded, epoch-decayed,
//     concurrency-safe per-page heat tracker cheap enough to sit on the
//     translate hot path (a single mutex-guarded map is not — one lock
//     would serialize every node's MMU).
//   - Daemon is the policy: it folds the heat epochs, decides promotions
//     and demotions under per-tier capacity budgets and promote/demote
//     hysteresis, skips demotions on a node a placement hint names
//     (when a placer supplies Hints), and executes the moves through the
//     memsys batch tier operations (one shootdown IPI per remote MMU per
//     batch).
//
// Every policy decision is deterministic: epoch folds return vpn-sorted
// snapshots, move lists sort by (heat desc, vpn asc), and the daemon runs
// only when its caller calls Step, so experiments drive it under seeded
// virtual time for bit-reproducible results.
package tiering

import (
	"cmp"
	"slices"
	"sync"
)

// shardCount is the number of independently locked heat shards. 64 keeps
// cross-node contention negligible at rack node counts.
const shardCount = 64

// shardOf spreads contiguous page numbers across shards so a sequential
// scan does not convoy on one lock (Fibonacci hashing).
func shardOf(vpn uint64) uint64 {
	return (vpn * 0x9E3779B97F4A7C15) >> (64 - 6)
}

// nodeHeat is one node's share of a tracked page's state: its raw access
// count for the current epoch plus its exponentially decayed heat from
// prior epochs. A tracked page is one []nodeHeat indexed by node.
type nodeHeat struct {
	epoch uint32
	heat  float64
}

type heatShard struct {
	mu   sync.Mutex
	m    map[uint64][]nodeHeat
	free [][]nodeHeat // faded pages' state, for the shard's next new pages
}

// HeatMap is the sharded per-page access-heat tracker fed by the MMU
// translate path (it implements the Sample half of memsys.Sampler).
// Writers touch only their page's shard; FoldEpoch drains all shards into
// a deterministic snapshot.
type HeatMap struct {
	nodes  int
	shards [shardCount]heatShard
}

// NewHeatMap creates a tracker for a rack of the given node count.
func NewHeatMap(nodes int) *HeatMap {
	if nodes <= 0 {
		panic("tiering: NewHeatMap needs a positive node count")
	}
	h := &HeatMap{nodes: nodes}
	for i := range h.shards {
		h.shards[i].m = make(map[uint64][]nodeHeat)
	}
	return h
}

// Sample records one access to vpn from node. Safe for concurrent use
// from every node; cost is one shard lock plus a map operation. Writes
// and reads weigh the same — tier distance hurts both equally here. A
// page new to the tracker takes the state of one that faded from its
// shard when there is one, so a tracked set that turns over allocates
// nothing once it has reached its largest size.
func (h *HeatMap) Sample(node int, vpn uint64, write bool) {
	if node < 0 || node >= h.nodes {
		return
	}
	sh := &h.shards[shardOf(vpn)]
	sh.mu.Lock()
	ph := sh.m[vpn]
	if ph == nil {
		if k := len(sh.free) - 1; k >= 0 {
			ph = sh.free[k]
			sh.free = sh.free[:k]
			clear(ph)
		} else {
			ph = make([]nodeHeat, h.nodes)
		}
		sh.m[vpn] = ph
	}
	ph[node].epoch++
	sh.mu.Unlock()
}

// Tracked returns how many pages currently have heat state.
func (h *HeatMap) Tracked() int {
	n := 0
	for i := range h.shards {
		h.shards[i].mu.Lock()
		n += len(h.shards[i].m)
		h.shards[i].mu.Unlock()
	}
	return n
}

// PageStat is one page's folded heat snapshot.
type PageStat struct {
	VPN  uint64
	Heat float64 // total decayed heat across nodes
	// Node is the dominant accessor (most heat, lowest id on ties) and
	// Share its fraction of the total.
	Node  int
	Share float64
}

// FoldEpoch ends the current sampling epoch: every page's heat becomes
// heat*decay + epochCount (per node), epoch counters reset, and pages
// whose total heat fell below floor are dropped from the tracker (their
// state kept for the shard's next new pages) and appended to faded — the
// daemon's demotion candidates. Surviving pages are appended to hot. Both
// results are sorted (hot by VPN, faded ascending) so the fold is
// deterministic regardless of map iteration order. Callers pass their
// previous results truncated to length zero to fold without allocating.
func (h *HeatMap) FoldEpoch(decay, floor float64, hot []PageStat, faded []uint64) ([]PageStat, []uint64) {
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.Lock()
		for vpn, ph := range sh.m {
			total, best, bestNode := 0.0, 0.0, 0
			for n := range ph {
				v := ph[n].heat*decay + float64(ph[n].epoch)
				ph[n] = nodeHeat{heat: v}
				total += v
				if v > best {
					best, bestNode = v, n
				}
			}
			if total < floor {
				delete(sh.m, vpn)
				sh.free = append(sh.free, ph)
				faded = append(faded, vpn)
				continue
			}
			hot = append(hot, PageStat{VPN: vpn, Heat: total, Node: bestNode, Share: best / total})
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(hot, func(a, b PageStat) int { return cmp.Compare(a.VPN, b.VPN) })
	slices.Sort(faded)
	return hot, faded
}
