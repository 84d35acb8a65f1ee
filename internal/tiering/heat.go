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
//     batch). A move that changes a page's home runs on the node that
//     gains or gives up the page; the work that belongs to no node —
//     warm<->cold moves and freeing the frames local promotions vacate —
//     runs on one executor per step, because any node can work on the
//     shared page table and the busiest node's clock is the rack's
//     throughput. The executor is the live node whose clock has advanced
//     least since Attach, passing over the one with the highest time per
//     access (Daemon.executor).
//
// Every policy decision is deterministic: epoch folds return vpn-sorted
// snapshots, move lists sort by (heat desc, vpn asc), and the daemon runs
// only when its caller calls Step, so experiments drive it under seeded
// virtual time for bit-reproducible results.
//
// A step costs the host what its moves need, not what the tracker holds.
// The fold is one pass over the tracked pages plus a sort of the
// survivors by page number; planning is O(movers · log movers): it sorts
// only the hot pages some rule would move, and each full tier's victims
// come off a heap built in linear time over that tier's managed pages,
// paying a logarithm only per victim taken.
package tiering

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"
)

// shardBits is log2 of the number of independently locked heat shards.
// 64 shards keep cross-node contention negligible at rack node counts.
const shardBits = 6

// pageHash spreads contiguous page numbers over the whole word (Fibonacci
// hashing): its top shardBits bits pick the shard, so a sequential scan
// does not convoy on one lock, and the bits below pick the home slot in
// the shard's table.
func pageHash(vpn uint64) uint64 { return vpn * 0x9E3779B97F4A7C15 }

// nodeHeat is one node's share of a tracked page's state: its raw access
// count for the current epoch plus its exponentially decayed heat from
// prior epochs.
type nodeHeat struct {
	epoch uint32
	heat  float64
}

// heatShard holds one lock's share of the tracked pages in an
// open-addressed table, in the style of the fabric cache's line index: a
// power-of-two number of slots, linear probing from a page's home slot,
// doubling before the table is more than three quarters full, and
// backward-shift removal, so the table holds live pages only. A page's
// per-node state sits inline, nodes entries from heat[slot*nodes], and
// moves with it. A tracked set that turns over reuses the slots it
// vacates and, once the shard has held its largest set, allocates
// nothing.
type heatShard struct {
	mu    sync.Mutex
	keys  []uint64   // vpn+1 per slot (page numbers never reach 2^64-1); 0 is empty
	heat  []nodeHeat // nodes entries per slot, zero in an empty slot
	count int
	shift uint // 64 - log2(len(keys)): hash<<shardBits>>shift is a home slot
}

// shardMinSlots is a shard table's size at its first insert.
const shardMinSlots = 16

// home returns vpn's home slot.
func (sh *heatShard) home(vpn uint64) uint64 { return pageHash(vpn) << shardBits >> sh.shift }

// slot returns vpn's slot, inserting vpn with zero heat if it is absent.
func (sh *heatShard) slot(vpn uint64, nodes int) int {
	for {
		if len(sh.keys) > 0 {
			mask := uint64(len(sh.keys) - 1)
			i := sh.home(vpn)
			for ; sh.keys[i] != 0; i = (i + 1) & mask {
				if sh.keys[i] == vpn+1 {
					return int(i)
				}
			}
			if 4*(sh.count+1) <= 3*len(sh.keys) {
				sh.keys[i] = vpn + 1
				sh.count++
				return int(i)
			}
		}
		sh.grow(nodes)
	}
}

// grow doubles the table (the first one has shardMinSlots) and puts every
// page back at its new home, with its heat.
func (sh *heatShard) grow(nodes int) {
	keys, heat := sh.keys, sh.heat
	size := max(2*len(keys), shardMinSlots)
	sh.keys, sh.heat, sh.count = make([]uint64, size), make([]nodeHeat, size*nodes), 0
	sh.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for j, k := range keys {
		if k != 0 {
			i := sh.slot(k-1, nodes)
			copy(sh.heat[i*nodes:(i+1)*nodes], heat[j*nodes:(j+1)*nodes])
		}
	}
}

// remove drops vpn, which must be present. Backward shift: each later page
// of the run whose probe distance reaches back to the hole moves into it,
// heat and all, and the hole moves to where that page was.
func (sh *heatShard) remove(vpn uint64, nodes int) {
	mask := uint64(len(sh.keys) - 1)
	i := sh.home(vpn)
	for sh.keys[i] != vpn+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; sh.keys[j] != 0; j = (j + 1) & mask {
		if (j-sh.home(sh.keys[j]-1))&mask >= (j-i)&mask {
			sh.keys[i] = sh.keys[j]
			copy(sh.heat[int(i)*nodes:int(i+1)*nodes], sh.heat[int(j)*nodes:int(j+1)*nodes])
			i = j
		}
	}
	sh.keys[i] = 0
	clear(sh.heat[int(i)*nodes : int(i+1)*nodes])
	sh.count--
}

// HeatMap is the sharded per-page access-heat tracker fed by the MMU
// translate path (it implements the Sample half of memsys.Sampler).
// Writers touch only their page's shard; FoldEpoch drains all shards into
// a deterministic snapshot.
type HeatMap struct {
	nodes  int
	shards [1 << shardBits]heatShard
}

// NewHeatMap creates a tracker for a rack of the given node count.
func NewHeatMap(nodes int) *HeatMap {
	if nodes <= 0 {
		panic("tiering: NewHeatMap needs a positive node count")
	}
	return &HeatMap{nodes: nodes}
}

// Sample records one access to vpn from node. Safe for concurrent use
// from every node; the cost is one shard lock and a probe of the shard's
// table, which allocates only when the shard holds more pages than it
// ever has. Writes and reads weigh the same — tier distance hurts both
// equally here.
func (h *HeatMap) Sample(node int, vpn uint64, write bool) {
	if node < 0 || node >= h.nodes {
		return
	}
	sh := &h.shards[pageHash(vpn)>>(64-shardBits)]
	sh.mu.Lock()
	sh.heat[sh.slot(vpn, h.nodes)*h.nodes+node].epoch++
	sh.mu.Unlock()
}

// Tracked returns how many pages currently have heat state.
func (h *HeatMap) Tracked() int {
	n := 0
	for i := range h.shards {
		h.shards[i].mu.Lock()
		n += h.shards[i].count
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
// whose total heat fell below fadeFloor are dropped from the tracker and
// appended to faded — the daemon's demotion candidates. Surviving pages
// are appended to hot. Both results are sorted (hot by VPN, faded
// ascending) so the fold is deterministic regardless of table order.
//
// A fold is one pass over the tracked pages and a sort of each result.
// Both buffers first grow to room for every tracked page, so a caller
// that passes its previous results truncated to length zero allocates at
// most once per buffer, and not at all once they have held the largest
// tracked set.
func (h *HeatMap) FoldEpoch(decay float64, hot []PageStat, faded []uint64) ([]PageStat, []uint64) {
	tracked := h.Tracked()
	hot, faded = slices.Grow(hot, tracked), slices.Grow(faded, tracked)
	nodes := h.nodes
	for s := range h.shards {
		sh := &h.shards[s]
		sh.mu.Lock()
		from := len(faded)
		for i, k := range sh.keys {
			if k == 0 {
				continue
			}
			ph := sh.heat[i*nodes : (i+1)*nodes]
			total, best, bestNode := 0.0, 0.0, 0
			for n := range ph {
				v := ph[n].heat*decay + float64(ph[n].epoch)
				ph[n] = nodeHeat{heat: v}
				total += v
				if v > best {
					best, bestNode = v, n
				}
			}
			if total < fadeFloor {
				faded = append(faded, k-1)
				continue
			}
			hot = append(hot, PageStat{VPN: k - 1, Heat: total, Node: bestNode, Share: best / total})
		}
		for _, vpn := range faded[from:] {
			sh.remove(vpn, nodes)
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(hot, func(a, b PageStat) int { return cmp.Compare(a.VPN, b.VPN) })
	slices.Sort(faded)
	return hot, faded
}
