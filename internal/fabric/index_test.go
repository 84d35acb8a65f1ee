package fabric

import (
	"math/rand"
	"testing"
)

// The node cache's line index (lineIndex, cache.go) against a map model,
// and what it promises the cache: a bounded cache that stays full makes no
// garbage, whatever mix of word and bulk accesses keeps it churning.

// homeBits is how many top hash bits the colliding keys share: keys that
// agree on them share one home slot in every table of up to 1<<homeBits
// slots, whatever size the table has grown to.
const homeBits = 10

// keysHomedAt returns n line indexes whose hashes have top as their top
// homeBits bits.
func keysHomedAt(top uint64, n int) []uint64 {
	var ks []uint64
	for li := uint64(1); len(ks) < n; li++ {
		if lineHash(li)>>(64-homeBits) == top {
			ks = append(ks, li)
		}
	}
	return ks
}

// indexKeyPool is the keys the model tests draw from: a run homed at the
// table's last slot (every probe past it wraps to slot 0), a run homed at
// slot 0 (which the wrapped probes then collide with), and enough
// consecutive line indexes to grow the table to 1<<homeBits slots.
func indexKeyPool(perHome, spread int) []uint64 {
	pool := append(keysHomedAt(1<<homeBits-1, perHome), keysHomedAt(0, perHome)...)
	for li := uint64(1); len(pool) < 2*perHome+spread; li++ {
		pool = append(pool, li<<20) // far from the homed keys, no duplicates
	}
	return pool
}

// Model operations: an op drawn from [0, opsTotal) inserts its key (if
// absent, as a miss does) below opPut, removes it below opDel, only looks
// it up below opGet (every op looks its key up afterwards), walks every
// entry below opWalk, and at opWalk empties the index, in place or by
// letting the table go.
const (
	opPut    = 7
	opDel    = 11
	opGet    = 13
	opWalk   = 15
	opsTotal = 16
)

// indexModel drives a lineIndex and a map through the same operations and
// fails at the first disagreement.
type indexModel struct {
	t     testing.TB
	x     lineIndex
	model map[uint64]*cacheLine
}

func newIndexModel(t testing.TB) *indexModel {
	return &indexModel{t: t, model: map[uint64]*cacheLine{}}
}

func (m *indexModel) step(op int, li uint64) {
	m.t.Helper()
	switch {
	case op < opPut:
		if m.model[li] == nil {
			ln := &cacheLine{}
			m.x.put(li, ln)
			m.model[li] = ln
		}
	case op < opDel:
		if got, want := m.x.del(li), m.model[li]; got != want {
			m.t.Fatalf("del(%d) = %p, the model holds %p", li, got, want)
		}
		delete(m.model, li)
	case op < opGet:
	case op < opWalk:
		m.walk()
	default:
		if li&1 == 0 {
			m.x.clear()
		} else {
			m.x = lineIndex{}
		}
		clear(m.model)
	}
	if got, want := m.x.get(li), m.model[li]; got != want {
		m.t.Fatalf("get(%d) = %p, the model holds %p", li, got, want)
	}
	if got, want := m.x.len(), len(m.model); got != want {
		m.t.Fatalf("len() = %d, the model holds %d", got, want)
	}
}

// walk checks that all yields every entry exactly once with its own line,
// and that it stops when the loop breaks.
func (m *indexModel) walk() {
	m.t.Helper()
	seen := make(map[uint64]bool, len(m.model))
	for li, ln := range m.x.all() {
		if seen[li] {
			m.t.Fatalf("walk yielded %d twice", li)
		}
		if want := m.model[li]; ln != want {
			m.t.Fatalf("walk yielded %d with %p, the model holds %p", li, ln, want)
		}
		seen[li] = true
	}
	if len(seen) != len(m.model) {
		m.t.Fatalf("walk yielded %d entries, the model holds %d", len(seen), len(m.model))
	}
	for range m.x.all() {
		break
	}
}

// TestLineIndexAgainstMap: long random runs over keys that share home
// slots and wrap around the table's end, growing it from empty to 1024
// slots, agree with a map after every operation. Walks and resets are
// rare so that most of a run is spent full and the run stays short.
func TestLineIndexAgainstMap(t *testing.T) {
	pool := indexKeyPool(48, 600)
	for seed := int64(1); seed <= 4; seed++ {
		m := newIndexModel(t)
		r := rand.New(rand.NewSource(seed))
		peak := 0
		for i := 0; i < 200_000; i++ {
			op := r.Intn(opGet) // insert, remove or look up
			switch {
			case r.Intn(20_000) == 0:
				op = opWalk
			case i%1000 == 0:
				op = opGet
			}
			m.step(op, pool[r.Intn(len(pool))])
			peak = max(peak, m.x.len())
		}
		if 4*peak <= 3*512 {
			t.Fatalf("seed %d: at most %d entries: the table never grew to 1024 slots", seed, peak)
		}
		m.walk()
	}
}

// FuzzLineIndex: any sequence of operations over the same kind of key pool
// agrees with a map. Each operation is two bytes: the op and the key.
func FuzzLineIndex(f *testing.F) {
	pool := indexKeyPool(24, 80)
	f.Add([]byte{0, 0, 0, 1, 0, 24, 0, 25, 7, 0, 13, 0, 15, 1})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 24, 7, 1, 7, 0, 11, 24, 13, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newIndexModel(t)
		for i := 0; i+1 < len(data); i += 2 {
			m.step(int(data[i])%opsTotal, pool[int(data[i+1])%len(pool)])
		}
		m.walk()
	})
}

// leastOfThree returns the least of three measurements: heapGrowth counts
// what the whole process allocates, and something outside the code under
// test (a runtime goroutine, another test's leftovers) can allocate during
// any one of them, but not by chance during all three.
func leastOfThree(measure func() uint64) uint64 {
	return min(measure(), measure(), measure())
}

// TestFullCacheChurnMakesNoGarbage: once a bounded cache is full, over
// 100k misses from every access kind — word and bulk, loads and stores,
// so half the victims are dirty — allocate next to nothing: the index
// reuses the slots its evictions vacate, and every victim's line object
// serves a later miss. A map index grew its table under the same churn.
func TestFullCacheChurnMakesNoGarbage(t *testing.T) {
	const capLines, span, accesses = 8192, 3 * 8192, 120_000
	f := New(Config{GlobalSize: 4 << 20, Nodes: 1, CacheCapacityLines: capLines, Latency: DefaultLatency()})
	n := f.Node(0)
	g := f.Reserve(span*LineSize, LineSize)
	var buf [8]byte
	next := 0
	// Stepping a prime stride around more lines than fit makes every
	// access a miss under first-in-first-out eviction.
	churn := func(k int) {
		for i := 0; i < k; i++ {
			next = (next + 7919) % span
			at := g.Add(uint64(next)*LineSize + 8)
			switch i % 4 {
			case 0:
				n.Store64(at, uint64(i)|1)
			case 1:
				n.Load64(at)
			case 2:
				n.Write(at, buf[:])
			case 3:
				n.Read(at, buf[:])
			}
		}
	}
	churn(2 * span) // fill the cache and install every home chunk
	before := n.Stats()
	b := leastOfThree(func() uint64 { return heapGrowth(func() { churn(accesses) }) })
	d := n.Stats().Delta(before)
	if d.Misses < 3*100_000 || d.WriteBacks < d.Misses/4 {
		t.Fatalf("three churns made %d misses and %d write-backs, want >= 100k each and a dirty victim in four", d.Misses, d.WriteBacks)
	}
	if b >= 4<<10 {
		t.Fatalf("%d misses on a full cache allocated %d bytes, want < 4 KiB", d.Misses/3, b)
	}
}

// TestWordAccessRecyclesDirtyVictims: a word access that evicts a dirty
// line writes a copy home after the unlock and puts the victim's object
// back on the free list, so a Load64+Store64 churn on a full cache
// allocates nothing per access.
func TestWordAccessRecyclesDirtyVictims(t *testing.T) {
	const capLines, span = 64, 128
	f := New(Config{GlobalSize: 1 << 20, Nodes: 1, CacheCapacityLines: capLines, Latency: DefaultLatency()})
	n := f.Node(0)
	g := f.Reserve(span*LineSize, LineSize)
	next := 0
	churn := func() {
		n.Store64(g.Add(uint64(next%span)*LineSize), uint64(next)|1)
		n.Load64(g.Add(uint64((next+1)%span) * LineSize))
		next += 2
	}
	for i := 0; i < span; i++ {
		churn()
	}
	before := n.Stats()
	if a := testing.AllocsPerRun(1000, churn); a != 0 {
		t.Fatalf("Load64+Store64 on a full cache: %v allocations per pair, want 0", a)
	}
	if d := n.Stats().Delta(before); d.Misses < 2000 || d.WriteBacks < 1000 {
		t.Fatalf("churn made %d misses and %d write-backs: not every access missed", d.Misses, d.WriteBacks)
	}
}

// TestBoundedResetKeepsItsTable: a crash or InvalidateAll empties a
// bounded cache's index in place; a new table for 8,192 lines would be
// 256 KiB.
func TestBoundedResetKeepsItsTable(t *testing.T) {
	const capLines = 8192
	f := New(Config{GlobalSize: 4 << 20, Nodes: 1, CacheCapacityLines: capLines})
	n := f.Node(0)
	g := f.Reserve(capLines*LineSize, LineSize)
	fill := func() {
		for l := uint64(0); l < capLines; l++ {
			n.Load64(g.Add(l * LineSize))
		}
	}
	if b := leastOfThree(func() uint64 { fill(); return heapGrowth(n.InvalidateAll) }); b >= 1<<10 {
		t.Fatalf("InvalidateAll of a full cache allocated %d bytes, want < 1 KiB", b)
	}
	crash := func() { n.Crash(); n.Restart() }
	if b := leastOfThree(func() uint64 { fill(); return heapGrowth(crash) }); b >= 1<<10 {
		t.Fatalf("a crash and restart of a full cache allocated %d bytes, want < 1 KiB", b)
	}
	if got := n.CacheResidentLines(); got != 0 {
		t.Fatalf("%d lines resident after a restart", got)
	}
}
