package fabric

import "sync"

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

// cache is a node's private, software-simulated cache of global memory.
// There is no coherence traffic between caches: a line stays as fetched (or
// as locally written) until the owning node invalidates or writes it back.
type cache struct {
	mu       sync.Mutex
	lines    map[uint64]*cacheLine
	capacity int // max resident lines; 0 means unlimited
	// order is a bounded cache's eviction order, first in first out:
	// order[0] is the list's sentinel, order[0].next the line resident
	// longest, order[0].prev the newest. A line enters at its miss and
	// leaves at its drop, each in O(1); hits do not move it. The victim
	// therefore depends on the access stream alone, never on the host (the
	// Go map's iteration order it used to follow differs from run to run).
	// Vacated links are chained through next from freeSlot. An unlimited
	// cache never evicts and tracks nothing: order stays nil.
	order    []fifoLink
	freeSlot int32
	// maintLocks counts lock acquisitions by the explicit cache-maintenance
	// paths (ranged write-back/invalidate/flush, the *All variants and
	// ReadFresh). Guarded by mu; a plain counter so the hot path pays one
	// increment, not an atomic. Tests use it to pin the "one lock
	// acquisition per ranged call" contract.
	maintLocks uint64
	// free holds up to freeLinesMax dropped lines for the next misses to
	// reuse: a transport invalidates a message's lines and fetches the
	// next message into them, and one allocation per missed line is most
	// of the garbage such a workload makes — which is what decides how
	// far its heap overshoots during a concurrent GC mark. Guarded by mu;
	// every *cacheLine is only ever held under mu (a dirty eviction
	// victim, the one exception, is never put here), so a line on this
	// list has no other reference.
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
func (c *cache) lookup(li uint64) *cacheLine { return c.lines[li] }

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

// unlink removes resident line li from the map and the eviction order.
// Caller holds c.mu.
func (c *cache) unlink(li uint64, ln *cacheLine) {
	delete(c.lines, li)
	if c.capacity > 0 {
		l := c.order[ln.slot]
		c.order[l.prev].next, c.order[l.next].prev = l.next, l.prev
		c.order[ln.slot].next, c.freeSlot = c.freeSlot, ln.slot
	}
}

// drop removes resident line li and keeps its object for reuse.
// Caller holds c.mu and no longer uses ln.
func (c *cache) drop(li uint64, ln *cacheLine) {
	c.unlink(li, ln)
	if len(c.free) < freeLinesMax {
		c.free = append(c.free, ln)
	}
}

// insert adds a line, evicting the line resident longest if at capacity. It
// returns the victim's index and line if a dirty line was evicted (the
// caller must write it back to home memory), else (0, nil).
// Caller holds c.mu.
func (c *cache) insert(li uint64, ln *cacheLine) (uint64, *cacheLine) {
	var victimIdx uint64
	var victim *cacheLine
	if c.capacity > 0 {
		if len(c.lines) >= c.capacity {
			idx := c.order[c.order[0].next].li
			if l := c.lines[idx]; l.dirty {
				// The caller reads it after unlocking: not recyclable.
				c.unlink(idx, l)
				victimIdx, victim = idx, l
			} else {
				c.drop(idx, l)
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
	c.lines[li] = ln
	return victimIdx, victim
}

// reset discards every line (crash, or InvalidateAll).
// Caller holds c.mu.
func (c *cache) reset() {
	c.lines = make(map[uint64]*cacheLine)
	if c.capacity > 0 {
		c.order, c.freeSlot = append(c.order[:0], fifoLink{}), 0
	}
}

// resident returns the number of lines currently cached.
func (c *cache) resident() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.lines)
}

// maintLockCount returns how many times a maintenance path has acquired
// the cache lock. Test-only observability for the one-lock-per-call
// contract of the ranged operations.
func (c *cache) maintLockCount() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maintLocks
}
