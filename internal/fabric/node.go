package fabric

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Node is one compute node's view of the fabric. All plain loads and stores
// go through the node's private, non-coherent cache; atomics bypass it.
// A Node's methods are safe for concurrent use by the many goroutines that
// play the node's CPUs.
type Node struct {
	id      int
	fab     *Fabric
	extra   atomic.Int64 // runtime link degradation, in additional hops
	cache   *cache
	crashed atomic.Bool
	stats   NodeStats
	opHook  atomic.Pointer[OpHook]
	// hooked mirrors "opHook != nil" as one byte so hot paths can skip
	// event assembly, the hook pointer load and the indirect call with a
	// single load when no hook is installed — the common case for every
	// subsystem outside forensic trace windows.
	hooked atomic.Bool
	// waitMu guards the open waits, oldest first (Await).
	waitMu sync.Mutex
	waits  []*WaitRecord
}

// ID returns the node's index within the rack.
func (n *Node) ID() int { return n.id }

// baseHops is every node's interconnect distance to home memory, before link
// degradation.
const baseHops = 1

// Hops returns the node's interconnect distance to home memory.
func (n *Node) Hops() int { return baseHops }

// SetLinkDegradation adds extra (>= 0) hops to every home-memory access
// from this node, modeling a degraded or rerouted interconnect link. It is
// safe to call while the node is running ops; fault sweeps toggle it live.
func (n *Node) SetLinkDegradation(extra int) {
	if extra < 0 {
		extra = 0
	}
	n.extra.Store(int64(extra))
}

// LinkDegradation returns the extra hop count currently applied.
func (n *Node) LinkDegradation() int { return int(n.extra.Load()) }

// totalHops is the effective interconnect distance including degradation.
func (n *Node) totalHops() int { return baseHops + int(n.extra.Load()) }

// Stats returns a snapshot of the node's memory-traffic counters.
func (n *Node) Stats() NodeStatsSnapshot { return n.stats.snapshot() }

// ResetStats zeroes the node's counters.
func (n *Node) ResetStats() { n.stats.reset() }

// VirtualNS returns the virtual nanoseconds this node has been charged.
func (n *Node) VirtualNS() uint64 { return n.stats.VirtualNS.Load() }

// CrashedError is the value every memory operation on a crashed node
// panics with: the CPU that issued the operation died with its node.
type CrashedError struct{ Node int }

func (e CrashedError) Error() string {
	return fmt.Sprintf("fabric: operation on crashed node %d", e.Node)
}

func (n *Node) checkAlive() {
	if n.crashed.Load() {
		panic(CrashedError{Node: n.id})
	}
}

// AbsorbCrash, deferred by a goroutine that plays one of n's CPUs, ends
// the deferring function quietly when it panicked because n crashed
// under it; any other panic propagates. It matches on the panic value
// instead of asking Crashed() afterwards, so a restart that lands
// between the panic and the check cannot turn a crash into a bug report.
//
// Only n's own crash is absorbed. A CPU of node n issues memory
// operations through n's handle and no other: reaching through another
// node's handle is a bug by contract, and if that node is crashed the
// resulting CrashedError{other} propagates like any other panic.
func (n *Node) AbsorbCrash() {
	if r := recover(); r != nil && r != any(CrashedError{Node: n.id}) {
		panic(r)
	}
}

// Crash simulates a node failure: every cache line that has not been
// written back is lost, and further memory operations panic until Restart.
// Home global memory keeps only what reached it — exactly the paper's
// persistence model for interconnect-attached memory.
func (n *Node) Crash() {
	n.crashed.Store(true)
	n.cache.mu.Lock()
	n.cache.reset()
	n.cache.mu.Unlock()
}

// Restart revives a crashed node with a cold, empty cache and an empty
// wait table.
func (n *Node) Restart() {
	n.cache.mu.Lock()
	n.cache.reset()
	n.cache.mu.Unlock()
	n.waitMu.Lock()
	n.waits = nil
	n.waitMu.Unlock()
	n.crashed.Store(false)
}

// Crashed reports whether the node is currently down.
func (n *Node) Crashed() bool { return n.crashed.Load() }

// CacheResidentLines returns how many lines the node's cache holds.
func (n *Node) CacheResidentLines() int {
	n.cache.mu.Lock()
	defer n.cache.mu.Unlock()
	return n.cache.size()
}

// fill returns resident line li, faulting it in from home memory on a
// miss, and reports whether it missed. If the insert evicted a dirty line,
// that line is returned unlinked for the caller to write home and recycle.
// Caller holds n.cache.mu.
func (n *Node) fill(li uint64, wholeStore bool) (ln *cacheLine, miss bool, victimIdx uint64, victim *cacheLine) {
	c := n.cache
	if ln = c.lookup(li); ln != nil {
		return ln, false, 0, nil
	}
	ln = c.newLine()
	// A store covering the whole line does no write-allocate fetch and
	// counts as a hit: the line's old contents are irrelevant and the store
	// buffer covers it entirely (hardware write-combining). The later
	// write-back is the only transfer this line costs.
	if !wholeStore {
		n.fab.fetchLineHome(li, &ln.data)
		miss = true
	}
	victimIdx, victim = c.insert(li, ln)
	return ln, miss, victimIdx, victim
}

// lineAccess runs fn on the cache line containing [g, g+size), faulting the
// line in from home memory on a miss, and reports whether it missed. size
// must not cross a line boundary. If write is true the line is marked
// dirty. The access is counted as a load or store and a dirty victim is
// written back after the unlock — from a copy taken under the lock, so its
// line object goes back on the free list at once — but the hit or miss is
// the caller's (withLine's) to count and charge.
func (n *Node) lineAccess(g GPtr, size uint64, write bool, fn func(data *[LineSize]byte, off uint64)) (miss bool) {
	n.checkAlive()
	n.fab.checkRange(g, size)
	off := uint64(g) % LineSize
	if off+size > LineSize {
		panic(fmt.Sprintf("fabric: access at %v size %d crosses a cache line", g, size))
	}
	c := n.cache
	c.mu.Lock()
	ln, miss, victimIdx, victim := n.fill(g.Line(), write && size == LineSize)
	var victimData [LineSize]byte
	if victim != nil {
		victimData = victim.data
		c.recycle(victim)
	}
	if write {
		ln.dirty = true
	}
	fn(&ln.data, off)
	c.mu.Unlock()
	if victim != nil {
		if fl := n.fab.writeLineHome(victimIdx, &victimData); fl > 0 {
			n.stats.FaultsInjected.Add(fl)
		}
		n.stats.WriteBacks.Add(1)
		if n.hooked.Load() {
			n.fireOp(OpWriteBack, victimIdx, 1)
		}
	}
	if write {
		n.stats.Stores.Add(1)
	} else {
		n.stats.Loads.Add(1)
	}
	return miss
}

// withLine is one word-granularity access: a lineAccess charged as an
// independent hit or miss.
func (n *Node) withLine(g GPtr, write bool, fn func(data *[LineSize]byte, off uint64)) {
	if n.lineAccess(g, WordSize, write, fn) {
		n.stats.Misses.Add(1)
		n.charge(n.globalCost(1))
		if n.hooked.Load() {
			n.fireOp(OpMiss, g.Line(), 0)
		}
	} else {
		n.stats.Hits.Add(1)
		n.charge(n.fab.lat.LocalNS)
	}
}

func (n *Node) checkAligned(g GPtr) {
	if !g.WordAligned() {
		panic(fmt.Sprintf("fabric: %d-byte access at unaligned address %v", WordSize, g))
	}
}

// Load64 reads an aligned 64-bit value through the node's cache. The value
// may be stale if another node wrote it and this node has not invalidated.
func (n *Node) Load64(g GPtr) uint64 {
	n.checkAligned(g)
	var v uint64
	n.withLine(g, false, func(d *[LineSize]byte, off uint64) { v = binary.LittleEndian.Uint64(d[off:]) })
	return v
}

// Store64 writes an aligned 64-bit value into the node's cache.
func (n *Node) Store64(g GPtr, v uint64) {
	n.checkAligned(g)
	n.withLine(g, true, func(d *[LineSize]byte, off uint64) { binary.LittleEndian.PutUint64(d[off:], v) })
}

// opEvent is one op event a bulk transfer fires after its unlock.
type opEvent struct {
	kind       OpKind
	arg0, arg1 uint64
}

// bulkAccess runs fn over every line-chunk of [g, g+total) through the
// cache under ONE hold of the cache lock, then charges ONE pipelined
// transfer cost for the whole range: missed lines stream at PerLineNS
// after the first line's full latency, hit lines cost local accesses. This
// models how real interconnects move bulk data (pipelined line fetches),
// unlike the independent-miss charging of the word-granularity ops. Every
// counter is summed in locals and added once, so what the node's other
// CPUs charge while the transfer is in flight is theirs alone. A dirty
// line a miss evicts goes home at its eviction, under the lock: a later
// line of the same transfer may be that victim, and its fetch must find
// the victim's data home. The op events — per line, the victim's
// OpWriteBack, then the line's OpMiss — fire after the unlock.
func (n *Node) bulkAccess(g GPtr, total uint64, write bool, fn func(d *[LineSize]byte, off, done, chunk uint64)) {
	n.checkAlive()
	n.fab.checkRange(g, total)
	var events []opEvent
	if n.hooked.Load() {
		events = make([]opEvent, 0, 16)
	}
	var lines, writeBacks, faults uint64
	hits, misses := 0, 0
	c := n.cache
	c.mu.Lock()
	for done := uint64(0); done < total; lines++ {
		cur := g.Add(done)
		off := uint64(cur) % LineSize
		chunk := min(LineSize-off, total-done)
		ln, miss, victimIdx, victim := n.fill(cur.Line(), write && chunk == LineSize)
		if victim != nil {
			faults += n.fab.writeLineHome(victimIdx, &victim.data)
			writeBacks++
			c.recycle(victim)
			if events != nil {
				events = append(events, opEvent{OpWriteBack, victimIdx, 1})
			}
		}
		if miss {
			misses++
			if events != nil {
				events = append(events, opEvent{OpMiss, cur.Line(), 0})
			}
		} else {
			hits++
		}
		if write {
			ln.dirty = true
		}
		fn(&ln.data, off, done, chunk)
		done += chunk
	}
	c.mu.Unlock()
	if write {
		n.stats.Stores.Add(lines)
	} else {
		n.stats.Loads.Add(lines)
	}
	if writeBacks > 0 {
		n.stats.WriteBacks.Add(writeBacks)
	}
	if faults > 0 {
		n.stats.FaultsInjected.Add(faults)
	}
	for _, e := range events {
		n.fireOp(e.kind, e.arg0, e.arg1)
	}
	agg := hits * n.fab.lat.LocalNS
	if misses > 0 {
		n.stats.Misses.Add(uint64(misses))
		agg += n.globalCost(misses)
	}
	if hits > 0 {
		n.stats.Hits.Add(uint64(hits))
	}
	n.charge(agg)
}

// Read copies len(buf) bytes starting at g into buf, through the cache,
// charged as one pipelined bulk transfer.
func (n *Node) Read(g GPtr, buf []byte) {
	total := uint64(len(buf))
	n.bulkAccess(g, total, false, func(d *[LineSize]byte, off, done, chunk uint64) {
		copy(buf[done:done+chunk], d[off:off+chunk])
	})
	n.stats.BulkBytesRead.Add(total)
}

// Write copies data into global memory starting at g, through the cache,
// charged as one pipelined bulk transfer. The data reaches home memory
// only after write-back.
func (n *Node) Write(g GPtr, data []byte) {
	total := uint64(len(data))
	n.bulkAccess(g, total, true, func(d *[LineSize]byte, off, done, chunk uint64) {
		copy(d[off:off+chunk], data[done:done+chunk])
	})
	n.stats.BulkBytesWritten.Add(total)
}

// ReadFresh copies len(buf) bytes starting at g into buf straight from home
// memory and leaves none of the range in the cache: any resident line of
// [g, g+len(buf)) is dropped exactly as InvalidateRange drops it (dirty
// data lost), the home lines stream into buf in ascending order, and nothing
// is inserted — no line object, no eviction, no allocation. It is
// InvalidateRange followed by Read for a reader that will not look at the
// range again before it next needs it fresh — a word other nodes change
// with fabric atomics, learnt without an atomic of one's own — and it
// charges what that pair charges, LocalNS plus one pipelined transfer of
// the lines, counted as one load that missed every line. A range the op
// reads again belongs in the cache: use the pair.
func (n *Node) ReadFresh(g GPtr, buf []byte) {
	n.checkAlive()
	total := uint64(len(buf))
	if total == 0 {
		return
	}
	n.fab.checkRange(g, total)
	first, last := LineSpan(g, total)
	n.dropRange(first, last)
	off, done := uint64(g)%LineSize, uint64(0)
	home := homeRun{f: n.fab}
	for li := first; li <= last; li++ {
		if off == 0 && total-done >= LineSize {
			home.fetch(li, (*[LineSize]byte)(buf[done:]))
			done += LineSize
			continue
		}
		var line [LineSize]byte
		home.fetch(li, &line)
		done += uint64(copy(buf[done:], line[off:]))
		off = 0
	}
	lines := last - first + 1
	n.stats.Loads.Add(1)
	n.stats.Misses.Add(lines)
	n.stats.BulkBytesRead.Add(total)
	n.charge(n.fab.lat.LocalNS + n.globalCost(int(lines)))
	if n.hooked.Load() {
		n.fireOp(OpReadFresh, first, lines)
	}
}

// WriteFresh copies data into global memory starting at g and sends it
// straight home, leaving none of the range in the cache. It is Write,
// WriteBackRange and InvalidateRange of one range as one call, for a writer
// that will not read the range back through this node's cache — a page
// frame filled and handed on — and it counts and charges what that triple
// does, part for part: Write's pipelined transfer (a resident line and a
// whole line are hits, a partial edge line not resident is fetched first
// and is a miss), one pipelined write-back of every line, the
// invalidate's LocalNS. Under one hold of the cache lock the lines go home
// in ascending order, through the fault injector when it is armed; a
// resident line is merged, sent home and dropped (its dirty bytes outside
// data go home with it). With the injector disarmed, the whole lines
// between two resident or partial ones go home as one run, which installs
// a never-written sparse block with its contents. One difference,
// deliberately: nothing is inserted, so a bounded cache at capacity evicts
// nothing where the triple's Write would have evicted up to one resident
// per line — a non-allocating store, like a non-temporal write. A range
// the writer reads back belongs in the cache: use Write and
// WriteBackRange.
func (n *Node) WriteFresh(g GPtr, data []byte) {
	n.checkAlive()
	total := uint64(len(data))
	n.fab.checkRange(g, total)
	if total == 0 {
		return
	}
	first, last := LineSpan(g, total)
	lines := last - first + 1
	armed := n.fab.faultsArmed()
	var missed [2]uint64 // only a range's two edge lines can be partial
	var faults uint64
	hits, misses := 0, 0
	off, done := uint64(g)%LineSize, uint64(0)
	home := homeRun{f: n.fab}
	// data[runAt:done] is whole lines from line runLi on, none resident,
	// that go home together when the injector is disarmed.
	runLi, runAt := first, done
	c := n.cache
	c.mu.Lock()
	c.maintLocks++
	for li := first; li <= last; li++ {
		chunk := min(LineSize-off, total-done)
		src := data[done : done+chunk]
		ln := c.unlink(li)
		if ln == nil && chunk == LineSize && !armed {
			hits++
		} else {
			home.store(runLi, data[runAt:done])
			switch {
			case ln != nil:
				copy(ln.data[off:], src)
				faults += home.commit(li, &ln.data, armed)
				c.recycle(ln)
				hits++
			case chunk == LineSize:
				faults += home.commit(li, (*[LineSize]byte)(src), armed)
				hits++
			default:
				var line [LineSize]byte
				home.fetch(li, &line)
				copy(line[off:], src)
				faults += home.commit(li, &line, armed)
				missed[misses] = li
				misses++
			}
			runLi, runAt = li+1, done+chunk
		}
		done += chunk
		off = 0
	}
	home.store(runLi, data[runAt:done])
	c.mu.Unlock()
	hooked := n.hooked.Load()
	n.stats.Stores.Add(lines)
	n.stats.BulkBytesWritten.Add(total)
	if hooked {
		for _, li := range missed[:misses] {
			n.fireOp(OpMiss, li, 0)
		}
	}
	agg := hits * n.fab.lat.LocalNS
	if misses > 0 {
		n.stats.Misses.Add(uint64(misses))
		agg += n.globalCost(misses)
	}
	if hits > 0 {
		n.stats.Hits.Add(uint64(hits))
	}
	n.charge(agg)
	if faults > 0 {
		n.stats.FaultsInjected.Add(faults)
	}
	n.stats.WriteBacks.Add(lines)
	n.charge(n.globalCost(int(lines)))
	if hooked {
		n.fireOp(OpWriteBackRange, first, lines)
	}
	n.stats.Invalidates.Add(lines)
	n.charge(n.fab.lat.LocalNS)
}

// --- Fabric atomics: bypass the cache, operate on home memory ---

func (n *Node) atomicPre(g GPtr) uint64 {
	n.checkAlive()
	n.fab.checkRange(g, WordSize)
	n.checkAligned(g)
	n.stats.Atomics.Add(1)
	n.charge(n.fab.lat.AtomicNS + n.totalHops()*n.fab.lat.HopNS)
	return uint64(g) / WordSize
}

// AtomicLoad64 reads a word directly from home memory.
func (n *Node) AtomicLoad64(g GPtr) uint64 {
	return n.fab.homeLoadWord(n.atomicPre(g))
}

// AtomicStore64 writes a word directly to home memory.
func (n *Node) AtomicStore64(g GPtr, v uint64) {
	n.fab.homeStoreWord(n.atomicPre(g), v)
}

// CAS64 atomically compares-and-swaps a home-memory word.
func (n *Node) CAS64(g GPtr, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(n.fab.homeWord(n.atomicPre(g)), old, new)
}

// Add64 atomically adds delta to a home-memory word and returns the new value.
func (n *Node) Add64(g GPtr, delta uint64) uint64 {
	return atomic.AddUint64(n.fab.homeWord(n.atomicPre(g)), delta)
}

// Swap64 atomically exchanges a home-memory word, returning the old value.
func (n *Node) Swap64(g GPtr, v uint64) uint64 {
	return atomic.SwapUint64(n.fab.homeWord(n.atomicPre(g)), v)
}

// Fence is a full memory barrier. Go's atomics already order the simulated
// operations; Fence exists so algorithm code documents its ordering points
// and pays the modeled cost.
func (n *Node) Fence() {
	n.checkAlive()
	n.stats.Fences.Add(1)
	n.charge(n.fab.lat.FenceNS)
	if n.hooked.Load() {
		n.fireOp(OpFence, 0, 0)
	}
}

// --- Cache maintenance ---
//
// The ranged operations are the fabric's batch fast path: every call takes
// the cache lock exactly ONCE, harvests the affected lines into a stack
// buffer, and finishes outside the lock with one batched home transfer,
// one summed stats update, one latency charge and (at most) one ranged op
// event. Per-line bookkeeping inside the loops uses plain locals — the
// single lock acquisition already serializes the harvest, so the per-line
// atomics the old line-at-a-time path paid are pure overhead.

// wbHarvestCap is how many dirty lines the ranged write-back paths buffer
// on the stack: 64 lines, one 4 KiB page of payload. wbSmallCap is the
// tier below it: Go zero-initializes a declared array, and paying a
// ~4.6 KiB memclr on a one-line write-back (the trace emitter's per-event
// publish) would eat most of the batching win, so narrow ranges get a
// one-line-wide buffer instead. A range wider than wbHarvestCap lines (an
// ipc message over 4 KiB) borrows a buffer from wbSpill, because appending
// past the stack array grows a fresh ~9 KiB slice on every such call.
const (
	wbHarvestCap = 64
	wbSmallCap   = 4
)

var wbSpill = sync.Pool{New: func() any {
	buf := make([]wbEntry, 0, 2*wbHarvestCap)
	return &buf
}}

// writeBackWide is the ranged write-back of a range too wide for the stack
// tiers, harvested into a pooled buffer; it returns the lines dropped.
func (n *Node) writeBackWide(first, last uint64, drop bool) uint64 {
	bp := wbSpill.Get().(*[]wbEntry)
	buf, dropped := n.harvestRange(first, last, (*bp)[:0], drop)
	n.finishWriteBack(buf)
	*bp = buf
	wbSpill.Put(bp)
	return dropped
}

// wbEntry is one harvested dirty line awaiting its home write.
type wbEntry struct {
	li   uint64
	data [LineSize]byte
}

// harvestRange walks [first, last] under one cache-lock acquisition,
// appending every dirty line to buf (cleaning it in place) and, when drop
// is set, discarding every resident line in the range (the flush path).
// It returns the grown buffer and how many lines were dropped.
func (n *Node) harvestRange(first, last uint64, buf []wbEntry, drop bool) ([]wbEntry, uint64) {
	c := n.cache
	dropped := uint64(0)
	c.mu.Lock()
	c.maintLocks++
	for li := first; li <= last; li++ {
		var ln *cacheLine
		if drop {
			ln = c.unlink(li)
		} else {
			ln = c.lookup(li)
		}
		if ln == nil {
			continue
		}
		if ln.dirty {
			ln.dirty = false
			buf = append(buf, wbEntry{li: li, data: ln.data})
		}
		if drop {
			c.recycle(ln)
			dropped++
		}
	}
	c.mu.Unlock()
	return buf, dropped
}

// finishWriteBack commits a harvested batch: the dirty lines stream home
// in ascending line order (ascending order is load-bearing for the fault
// injector's deterministic replay and for trace's payload-before-sequence
// line commit), then the node pays ONE pipelined burst charge, ONE summed
// stats update and ONE ranged op event for the whole batch.
func (n *Node) finishWriteBack(buf []wbEntry) {
	if len(buf) == 0 {
		return
	}
	faults := n.fab.writeLinesHome(buf)
	if faults > 0 {
		n.stats.FaultsInjected.Add(faults)
	}
	n.stats.WriteBacks.Add(uint64(len(buf)))
	// One pipelined burst for the whole range, like hardware
	// write-combining, rather than independent line round trips.
	n.charge(n.globalCost(len(buf)))
	if n.hooked.Load() {
		n.fireOp(OpWriteBackRange, buf[0].li, uint64(len(buf)))
	}
}

// WriteBackRange pushes every dirty cached line overlapping [g, g+size) to
// home memory. Lines stay resident and become clean.
func (n *Node) WriteBackRange(g GPtr, size uint64) {
	n.checkAlive()
	if size == 0 {
		return
	}
	n.fab.checkRange(g, size)
	first, last := LineSpan(g, size)
	if last-first < wbSmallCap {
		var stack [wbSmallCap]wbEntry
		buf, _ := n.harvestRange(first, last, stack[:0], false)
		n.finishWriteBack(buf)
		return
	}
	if last-first >= wbHarvestCap {
		n.writeBackWide(first, last, false)
		return
	}
	var stack [wbHarvestCap]wbEntry
	buf, _ := n.harvestRange(first, last, stack[:0], false)
	n.finishWriteBack(buf)
}

// InvalidateRange discards every cached line overlapping [g, g+size).
// Dirty data in those lines is LOST, exactly like an invalidate-without-
// write-back instruction; use FlushRange to keep it.
func (n *Node) InvalidateRange(g GPtr, size uint64) {
	n.checkAlive()
	if size == 0 {
		return
	}
	n.fab.checkRange(g, size)
	n.dropRange(LineSpan(g, size))
	n.charge(n.fab.lat.LocalNS)
}

// dropRange discards every resident line in [first, last] under one
// cache-lock acquisition and counts them as invalidates: what
// InvalidateRange and ReadFresh do to the cache.
func (n *Node) dropRange(first, last uint64) {
	c := n.cache
	dropped := uint64(0)
	c.mu.Lock()
	c.maintLocks++
	for li := first; li <= last; li++ {
		if c.drop(li) {
			dropped++
		}
	}
	c.mu.Unlock()
	if dropped > 0 {
		n.stats.Invalidates.Add(dropped)
	}
}

// FlushRange writes back then invalidates every line in [g, g+size): after
// it returns, home memory holds this node's writes and the next load
// re-fetches from home. The write-back and the invalidate share one
// single-pass harvest under one lock acquisition.
func (n *Node) FlushRange(g GPtr, size uint64) {
	n.checkAlive()
	if size == 0 {
		return
	}
	n.fab.checkRange(g, size)
	first, last := LineSpan(g, size)
	if last-first < wbSmallCap {
		var stack [wbSmallCap]wbEntry
		buf, dropped := n.harvestRange(first, last, stack[:0], true)
		n.finishWriteBack(buf)
		if dropped > 0 {
			n.stats.Invalidates.Add(dropped)
		}
		n.charge(n.fab.lat.LocalNS)
		return
	}
	var dropped uint64
	if last-first >= wbHarvestCap {
		dropped = n.writeBackWide(first, last, true)
	} else {
		var stack [wbHarvestCap]wbEntry
		var buf []wbEntry
		buf, dropped = n.harvestRange(first, last, stack[:0], true)
		n.finishWriteBack(buf)
	}
	if dropped > 0 {
		n.stats.Invalidates.Add(dropped)
	}
	n.charge(n.fab.lat.LocalNS)
}

// WriteBackAll pushes every dirty line in the node's cache to home memory.
// The batch streams home in ascending line order — deterministic, unlike
// the index's table order, which follows the hash and the table's size —
// so fault-injection replays are stable.
func (n *Node) WriteBackAll() {
	n.checkAlive()
	c := n.cache
	c.mu.Lock()
	c.maintLocks++
	buf := make([]wbEntry, 0, c.size())
	for li, ln := range c.all() {
		if ln.dirty {
			ln.dirty = false
			buf = append(buf, wbEntry{li: li, data: ln.data})
		}
	}
	c.mu.Unlock()
	sort.Slice(buf, func(i, j int) bool { return buf[i].li < buf[j].li })
	n.finishWriteBack(buf)
}

// InvalidateAll empties the node's cache, losing dirty data.
func (n *Node) InvalidateAll() {
	n.checkAlive()
	c := n.cache
	c.mu.Lock()
	c.maintLocks++
	dropped := c.reset()
	c.mu.Unlock()
	n.stats.Invalidates.Add(uint64(dropped))
	n.charge(n.fab.lat.LocalNS)
}

// FlushAll writes back every dirty line, then empties the cache.
func (n *Node) FlushAll() {
	n.WriteBackAll()
	n.InvalidateAll()
}

// --- Cost hooks for the layers above ---

// ChargeLocal charges the cost of one node-local memory access. Higher
// layers use it to model work on private (non-fabric) data.
func (n *Node) ChargeLocal() { n.charge(n.fab.lat.LocalNS) }

// ChargeNS charges an arbitrary modeled cost, e.g. software-stack
// processing in the networking baseline.
func (n *Node) ChargeNS(ns int) { n.charge(ns) }
