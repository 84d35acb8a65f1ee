package fabric

import "sync"

// cacheLine is one 64-byte line held in a node's simulated cache.
type cacheLine struct {
	data  [LineSize]byte
	dirty bool
}

// cache is a node's private, software-simulated cache of global memory.
// There is no coherence traffic between caches: a line stays as fetched (or
// as locally written) until the owning node invalidates or writes it back.
type cache struct {
	mu       sync.Mutex
	lines    map[uint64]*cacheLine
	capacity int // max resident lines; 0 means unlimited
	// maintLocks counts lock acquisitions by the explicit cache-maintenance
	// paths (ranged write-back/invalidate/flush and the *All variants).
	// Guarded by mu; a plain counter so the hot path pays one increment,
	// not an atomic. Tests use it to pin the "one lock acquisition per
	// ranged call" contract.
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
	return &cache{lines: make(map[uint64]*cacheLine), capacity: capacity}
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

// drop removes resident line li and keeps its object for reuse.
// Caller holds c.mu and no longer uses ln.
func (c *cache) drop(li uint64, ln *cacheLine) {
	delete(c.lines, li)
	if len(c.free) < freeLinesMax {
		c.free = append(c.free, ln)
	}
}

// insert adds a line, evicting a victim if at capacity. It returns the
// victim's index and line if a dirty line was evicted (the caller must write
// it back to home memory), else (0, nil).
// Caller holds c.mu.
func (c *cache) insert(li uint64, ln *cacheLine) (uint64, *cacheLine) {
	var victimIdx uint64
	var victim *cacheLine
	if c.capacity > 0 && len(c.lines) >= c.capacity {
		// Evict an arbitrary line (map order); real caches use LRU/clock but
		// the choice only perturbs the miss rate, not correctness.
		for idx, l := range c.lines {
			if l.dirty {
				// The caller reads it after unlocking: not recyclable.
				delete(c.lines, idx)
				victimIdx, victim = idx, l
			} else {
				c.drop(idx, l)
			}
			break
		}
	}
	c.lines[li] = ln
	return victimIdx, victim
}

// reset discards every line (crash, or InvalidateAll).
// Caller holds c.mu.
func (c *cache) reset() { c.lines = make(map[uint64]*cacheLine) }

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
