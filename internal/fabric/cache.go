package fabric

import (
	"iter"
	"math/bits"
	"sync"
)

// cacheLine is one 64-byte line held in a node's simulated cache.
type cacheLine struct {
	data  [LineSize]byte
	dirty bool
	// slot is the line's place in a bounded cache's eviction order (an
	// index into cache.order); an unlimited cache leaves it 0. It fits the
	// padding behind dirty, so tracking costs a line object nothing.
	slot int32
}

// fifoLink is one resident line's node in a bounded cache's eviction
// order, a circular doubly-linked list threaded through cache.order by
// index so that it holds no pointers and costs no allocation per line.
type fifoLink struct {
	li         uint64
	prev, next int32
}

// lineIndex maps each resident line's index to its line object. It is an
// open-addressed table of a power-of-two number of slots: a line's home
// slot is the top bits of a multiplicative (Fibonacci) hash of its index,
// a collision probes forward to the next free slot, and the table doubles
// before it is more than three quarters full, so every probe run ends at
// an empty slot. A removal shifts the rest of its run back into the hole
// instead of leaving a tombstone, so the table holds live entries only: a
// bounded cache's miss-evict churn reuses the slots it vacates and, once
// its residency holds steady, allocates nothing, which a Go map under the
// same delete-and-insert stream does not promise (it grows its table). An
// empty slot has a nil line. Only cache's methods touch it.
type lineIndex struct {
	slots []indexSlot
	count int
	shift uint // 64 - log2(len(slots)): hash >> shift is a home slot
}

type indexSlot struct {
	li uint64
	ln *cacheLine
}

// indexMinSlots is the table's size at its first insert.
const indexMinSlots = 16

// lineHash spreads consecutive line indexes over the whole word; its top
// bits pick the home slot.
func lineHash(li uint64) uint64 { return li * 0x9e3779b97f4a7c15 }

// get returns li's line, or nil if li is absent.
func (x *lineIndex) get(li uint64) *cacheLine {
	if x.count == 0 {
		return nil
	}
	mask := uint64(len(x.slots) - 1)
	for i := lineHash(li) >> x.shift; ; i = (i + 1) & mask {
		if s := &x.slots[i]; s.ln == nil || s.li == li {
			return s.ln
		}
	}
}

// put adds li, which must be absent, growing the table first if it would
// be more than three quarters full.
func (x *lineIndex) put(li uint64, ln *cacheLine) {
	if 4*(x.count+1) > 3*len(x.slots) {
		x.grow()
	}
	mask := uint64(len(x.slots) - 1)
	i := lineHash(li) >> x.shift
	for x.slots[i].ln != nil {
		i = (i + 1) & mask
	}
	x.slots[i] = indexSlot{li, ln}
	x.count++
}

// grow doubles the table (the first one has indexMinSlots) and puts every
// entry back at its new home.
func (x *lineIndex) grow() {
	old := x.slots
	size := max(2*len(old), indexMinSlots)
	x.slots, x.count = make([]indexSlot, size), 0
	x.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.ln != nil {
			x.put(s.li, s.ln)
		}
	}
}

// del removes li and returns its line, or returns nil if li is absent.
func (x *lineIndex) del(li uint64) *cacheLine {
	if x.count == 0 {
		return nil
	}
	mask := uint64(len(x.slots) - 1)
	i := lineHash(li) >> x.shift
	for x.slots[i].ln != nil && x.slots[i].li != li {
		i = (i + 1) & mask
	}
	ln := x.slots[i].ln
	if ln == nil {
		return nil
	}
	// Backward shift: each later entry of the run whose home is not in
	// (hole, j] — its probe distance reaches back to the hole — moves
	// into the hole, which moves to where it was.
	for j := (i + 1) & mask; x.slots[j].ln != nil; j = (j + 1) & mask {
		if (j-lineHash(x.slots[j].li)>>x.shift)&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = indexSlot{}
	x.count--
	return ln
}

// len returns the number of entries.
func (x *lineIndex) len() int { return x.count }

// clear empties the table in place, keeping its size.
func (x *lineIndex) clear() {
	clear(x.slots)
	x.count = 0
}

// all yields every entry, in table order.
func (x *lineIndex) all() iter.Seq2[uint64, *cacheLine] {
	return func(yield func(uint64, *cacheLine) bool) {
		for _, s := range x.slots {
			if s.ln != nil && !yield(s.li, s.ln) {
				return
			}
		}
	}
}

// cache is a node's private, software-simulated cache of global memory.
// There is no coherence traffic between caches: a line stays as fetched (or
// as locally written) until the owning node invalidates or writes it back.
type cache struct {
	mu       sync.Mutex
	index    lineIndex
	capacity int // max resident lines; 0 means unlimited
	// order is a bounded cache's eviction order, first in first out:
	// order[0] is the list's sentinel, order[0].next the line resident
	// longest, order[0].prev the newest. A line enters at its miss and
	// leaves at its drop, each in O(1); hits do not move it. The victim
	// therefore depends on the access stream alone, never on the host (the
	// Go map's iteration order it used to follow differed from run to run).
	// Vacated links are chained through next from freeSlot. An unlimited
	// cache never evicts and tracks nothing: order stays nil.
	order    []fifoLink
	freeSlot int32
	// maintLocks counts lock acquisitions by the explicit cache-maintenance
	// paths (ranged write-back/invalidate/flush, the *All variants,
	// ReadFresh and WriteFresh). Guarded by mu; a plain counter so the hot
	// path pays one increment, not an atomic. Tests use it to pin the "one
	// lock acquisition per ranged call" contract.
	maintLocks uint64
	// free holds up to freeLinesMax dropped lines for the next misses to
	// reuse: a transport invalidates a message's lines and fetches the
	// next message into them, and one allocation per missed line is most
	// of the garbage such a workload makes — which is what decides how
	// far its heap overshoots during a concurrent GC mark. Guarded by mu;
	// every *cacheLine is only ever held under mu, so a line on this list
	// has no other reference.
	free []*cacheLine
}

// freeLinesMax bounds the free list: 1024 lines (64 KiB of payload, the
// largest ipc message) is all a drop-then-refetch cycle can reuse, and it
// keeps what a node retains after a bulk invalidate under 100 KiB.
const freeLinesMax = 1024

func newCache(capacity int) *cache {
	c := &cache{capacity: capacity}
	c.reset()
	return c
}

// lookup returns the resident line for index li, or nil.
// Caller holds c.mu.
func (c *cache) lookup(li uint64) *cacheLine { return c.index.get(li) }

// newLine returns a zeroed, clean line: a recycled one if the free list
// has any, else a fresh allocation.
// Caller holds c.mu.
func (c *cache) newLine() *cacheLine {
	if k := len(c.free); k > 0 {
		ln := c.free[k-1]
		c.free = c.free[:k-1]
		*ln = cacheLine{}
		return ln
	}
	return &cacheLine{}
}

// unlink removes line li from the index and the eviction order and
// returns it, or returns nil if li is not resident.
// Caller holds c.mu.
func (c *cache) unlink(li uint64) *cacheLine {
	ln := c.index.del(li)
	if ln != nil && c.capacity > 0 {
		l := c.order[ln.slot]
		c.order[l.prev].next, c.order[l.next].prev = l.next, l.prev
		c.order[ln.slot].next, c.freeSlot = c.freeSlot, ln.slot
	}
	return ln
}

// drop removes line li, if resident, and keeps its object for reuse. It
// reports whether li was resident.
// Caller holds c.mu.
func (c *cache) drop(li uint64) bool {
	ln := c.unlink(li)
	if ln != nil {
		c.recycle(ln)
	}
	return ln != nil
}

// recycle keeps an unlinked line object for the next miss, if the free
// list has room. Caller holds c.mu and no longer uses ln.
func (c *cache) recycle(ln *cacheLine) {
	if len(c.free) < freeLinesMax {
		c.free = append(c.free, ln)
	}
}

// insert adds a line, evicting the line resident longest if at capacity. It
// returns the victim's index and line if a dirty line was evicted (the
// caller must write its data home and then recycle it), else (0, nil).
// Caller holds c.mu.
func (c *cache) insert(li uint64, ln *cacheLine) (uint64, *cacheLine) {
	var victimIdx uint64
	var victim *cacheLine
	if c.capacity > 0 {
		if c.size() >= c.capacity {
			idx := c.order[c.order[0].next].li
			if l := c.unlink(idx); l.dirty {
				victimIdx, victim = idx, l
			} else {
				c.recycle(l)
			}
		}
		s := c.freeSlot
		if s != 0 {
			c.freeSlot = c.order[s].next
		} else {
			s = int32(len(c.order))
			c.order = append(c.order, fifoLink{})
		}
		newest := c.order[0].prev
		c.order[s] = fifoLink{li: li, prev: newest}
		c.order[newest].next, c.order[0].prev = s, s
		ln.slot = s
	}
	c.index.put(li, ln)
	return victimIdx, victim
}

// all yields every resident line, in no particular order.
// Caller holds c.mu and neither inserts nor drops lines during the walk.
func (c *cache) all() iter.Seq2[uint64, *cacheLine] { return c.index.all() }

// reset discards every line (crash, or InvalidateAll) and returns how many
// there were. A bounded cache keeps its index table, which never outgrows
// the capacity, so resetting it allocates nothing; an unlimited cache
// lets its table go, so a walk after the reset is not as long as the
// largest residency the cache ever had.
// Caller holds c.mu.
func (c *cache) reset() int {
	dropped := c.size()
	if c.capacity > 0 {
		c.index.clear()
		c.order, c.freeSlot = append(c.order[:0], fifoLink{}), 0
	} else {
		c.index = lineIndex{}
	}
	return dropped
}

// size returns the number of lines currently cached.
// Caller holds c.mu.
func (c *cache) size() int { return c.index.len() }
