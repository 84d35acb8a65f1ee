package ds

import (
	"fmt"

	"flacos/internal/fabric"
)

// HashMap is a fixed-capacity open-addressing hash table in global memory
// mapping non-zero uint64 keys to uint64 values below 2^63, safe for
// concurrent use from every node.
//
// Each slot is two fabric words: a key word claimed with CAS and a value
// word that encodes presence in its low bit (so a concurrent reader can
// never observe a claimed-but-unwritten value). Deleted slots become
// tombstones and are not reused — the concurrent-probe-safe behaviour for
// a structure whose FlacOS uses (page-cache index, socket registry, page
// dedup table) are insert-heavy and delete-rare. Size accordingly.
//
// Every operation finds its slot with the same probe loop (probe). Find
// hands the slot back as a Slot, so a caller that reads a key and then
// replaces its value — the rack store's every mutation — pays the probe
// once: ExchangeAt and CompareAndSwapAt are one CAS on the value word.
type HashMap struct {
	slots    fabric.GPtr
	capacity uint64 // power of two
	countG   fabric.GPtr
}

// Slot is a handle on the slot Find stopped at: its index and the value
// word Find saw there. The zero Slot names no slot; ExchangeAt and
// CompareAndSwapAt report it absent.
//
// Why a handle stays valid without re-reading the key word. A slot's key
// word only ever goes 0 -> K -> tombstone and tombstones are never reused,
// so a handle taken for K can never name a slot bound to another key; the
// one thing that can happen behind it is K's Delete, which is a CAS of the
// key word to the tombstone and THEN a Swap of the value word to 0. A
// handle's CAS on the value word that lands before that Swap succeeds, and
// the Swap hands the value it installed to the deleter: the history reads
// exchange-then-delete, and the deleter owns the exchanged-in value exactly
// as it would have owned the one before. A CAS that lands after the Swap
// finds the present bit clear and fails, and nothing ever sets it again in a
// tombstoned slot except a by-key Put that lost the same race and undoes
// its write. Racing exchanges, by handle or by key, are one CAS chain on
// one word, so every caller receives a distinct previous value — the
// exactly-once-retire contract Exchange documents.
type Slot struct {
	i    uint64
	seen uint64 // encoded value word; its present bit is set in every handle Find returns
}

const tombstone = ^uint64(0)

// NewHashMap reserves a table with at least capacity slots (rounded up to
// a power of two).
func NewHashMap(f *fabric.Fabric, capacity uint64) *HashMap {
	c := uint64(8)
	for c < capacity {
		c <<= 1
	}
	return &HashMap{
		slots:    f.Reserve(c*2*fabric.WordSize, fabric.LineSize),
		capacity: c,
		countG:   f.Reserve(fabric.LineSize, fabric.LineSize),
	}
}

// Cap returns the table's slot capacity.
func (m *HashMap) Cap() uint64 { return m.capacity }

// Len returns the number of live entries.
func (m *HashMap) Len(n *fabric.Node) uint64 { return n.AtomicLoad64(m.countG) }

func (m *HashMap) keyG(i uint64) fabric.GPtr   { return m.slots.Add(i * 2 * fabric.WordSize) }
func (m *HashMap) valueG(i uint64) fabric.GPtr { return m.keyG(i).Add(fabric.WordSize) }

// mix is a 64-bit finalizer (splitmix64) for slot hashing.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func checkKey(key uint64) {
	if key == 0 || key == tombstone {
		panic(fmt.Sprintf("ds: invalid HashMap key %#x", key))
	}
}

// encode packs value with the present bit, as the value word holds it.
func encode(value uint64) uint64 {
	if value >= 1<<63 {
		panic("ds: HashMap value must be below 2^63")
	}
	return value<<1 | 1
}

// How a probe ended.
const (
	probeAbsent  = iota // at the first empty slot, or after a full lap: key is not bound
	probeFound          // at the slot whose key word is key
	probeClaimed        // claim only: at a slot that was empty and is now bound to key, value word still 0
)

// probe walks key's probe sequence — one fabric atomic per slot examined —
// until it reaches the slot bound to key or the first empty one. With
// claim it binds that empty slot to key (CAS 0 -> key) and the caller
// publishes the value; a full table is then a sizing error and panics.
func (m *HashMap) probe(n *fabric.Node, key uint64, claim bool) (i uint64, end int) {
	checkKey(key)
	mask := m.capacity - 1
	i = mix(key) & mask
	for probes := uint64(0); probes < m.capacity; {
		switch k := n.AtomicLoad64(m.keyG(i)); {
		case k == key:
			return i, probeFound
		case k == 0 && !claim:
			return i, probeAbsent
		case k == 0:
			if n.CAS64(m.keyG(i), 0, key) {
				return i, probeClaimed
			}
			continue // lost the slot; re-examine it (the winner may be our key)
		}
		i, probes = (i+1)&mask, probes+1 // another key's slot or a tombstone
	}
	if claim {
		panic(fmt.Sprintf("ds: HashMap full (capacity %d, tombstones count)", m.capacity))
	}
	return 0, probeAbsent
}

// publish stores the first value of a slot probe just claimed.
func (m *HashMap) publish(n *fabric.Node, i, enc uint64) {
	n.AtomicStore64(m.valueG(i), enc)
	n.Add64(m.countG, 1)
}

// Put inserts or updates key -> value. It returns the previous value and
// whether the key was already present. value must be below 2^63.
func (m *HashMap) Put(n *fabric.Node, key, value uint64) (prev uint64, existed bool) {
	enc := encode(value)
	for {
		i, end := m.probe(n, key, true)
		if end == probeClaimed {
			m.publish(n, i, enc)
			return 0, false
		}
		old := n.Swap64(m.valueG(i), enc)
		if n.AtomicLoad64(m.keyG(i)) != key {
			// A concurrent Delete tombstoned the slot around our value
			// write; our value must not live in a dead slot. Undo and
			// retry the whole Put (it will claim a fresh slot).
			n.AtomicStore64(m.valueG(i), 0)
			continue
		}
		// old == 0: the inserting node had claimed the key but not yet
		// stored the value; treat as fresh insert (no previous value).
		return old >> 1, old != 0
	}
}

// Find returns key's value, whether it is present, and a handle on its
// slot for ExchangeAt and CompareAndSwapAt (the zero Slot when absent).
// A key whose inserter has claimed the slot but not yet published a
// value is absent. Two fabric atomics when the key sits at its home slot.
func (m *HashMap) Find(n *fabric.Node, key uint64) (Slot, uint64, bool) {
	i, end := m.probe(n, key, false)
	if end != probeFound {
		return Slot{}, 0, false
	}
	v := n.AtomicLoad64(m.valueG(i))
	if v&1 == 0 {
		return Slot{}, 0, false // claimed but value not yet published, or deleted
	}
	return Slot{i: i, seen: v}, v >> 1, true
}

// Get returns the value for key and whether it is present.
func (m *HashMap) Get(n *fabric.Node, key uint64) (uint64, bool) {
	_, v, ok := m.Find(n, key)
	return v, ok
}

// PutIfAbsent inserts key -> value only if key is absent. It returns the
// value actually mapped (the existing one on conflict) and whether this
// call inserted it. Racing installers therefore agree on one winner — the
// install protocol the shared page cache uses so concurrent misses on two
// nodes end up sharing a single frame.
func (m *HashMap) PutIfAbsent(n *fabric.Node, key, value uint64) (actual uint64, inserted bool) {
	enc := encode(value)
	for {
		i, end := m.probe(n, key, true)
		if end == probeClaimed {
			m.publish(n, i, enc)
			return value, true
		}
		for {
			if v := n.AtomicLoad64(m.valueG(i)); v&1 == 1 {
				return v >> 1, false
			}
			// The claimer has not yet published its value (or a racing
			// delete). Re-check the key; spin briefly otherwise.
			if n.AtomicLoad64(m.keyG(i)) != key {
				break // tombstoned: probe again, past it
			}
		}
	}
}

// Exchange atomically replaces key's value and returns the previous one,
// but only if the key is already present — unlike Put it never inserts.
// It is the update primitive for protocols that bind a slot to a key once
// (with PutIfAbsent) and thereafter replace the value unconditionally:
// every racing Exchange receives a distinct previous value, so exactly one
// owner exists for each replaced object (the property the rack-shared
// Redis store relies on to retire old value blocks exactly once). A key
// whose inserter has not yet published its value is not yet readable: the
// Exchange linearizes before the insert and reports it absent.
func (m *HashMap) Exchange(n *fabric.Node, key, value uint64) (prev uint64, existed bool) {
	s, _, _ := m.Find(n, key)
	return m.ExchangeAt(n, s, value)
}

// ExchangeAt is Exchange through a handle: one CAS from the value word
// Find saw. If the word has moved it is reloaded and the CAS retried; a
// word whose present bit is clear means the key was deleted behind the
// handle, and the exchange reports it absent and installs nothing.
func (m *HashMap) ExchangeAt(n *fabric.Node, s Slot, value uint64) (prev uint64, existed bool) {
	enc := encode(value)
	for v := s.seen; v&1 == 1; v = n.AtomicLoad64(m.valueG(s.i)) {
		if n.CAS64(m.valueG(s.i), v, enc) {
			return v >> 1, true
		}
	}
	return 0, false
}

// CompareAndSwap replaces key's value with new only if it currently equals
// old. It returns false if the key is absent or the value differs. Both
// values must be below 2^63.
func (m *HashMap) CompareAndSwap(n *fabric.Node, key, old, new uint64) bool {
	o, nw := encode(old), encode(new)
	i, end := m.probe(n, key, false)
	return end == probeFound && n.CAS64(m.valueG(i), o, nw)
}

// CompareAndSwapAt is CompareAndSwap through a handle: one CAS. It fails,
// like the by-key form, if the value is no longer old — which includes a
// key deleted behind the handle, whose value word is 0.
func (m *HashMap) CompareAndSwapAt(n *fabric.Node, s Slot, old, new uint64) bool {
	o, nw := encode(old), encode(new)
	return s.seen&1 == 1 && n.CAS64(m.valueG(s.i), o, nw)
}

// Delete removes key, returning its value and whether it was present. The
// slot becomes a tombstone.
func (m *HashMap) Delete(n *fabric.Node, key uint64) (uint64, bool) {
	i, end := m.probe(n, key, false)
	if end != probeFound || !n.CAS64(m.keyG(i), key, tombstone) {
		return 0, false // absent, or a concurrent delete won
	}
	return m.drain(n, i)
}

// drain is Delete's second step, on a slot whose key word the caller has
// just tombstoned: it empties the value word and returns what was there.
// That is the value the key last held — including one an ExchangeAt
// installed after the tombstone (Slot's comment), which the deleter
// thereby owns.
func (m *HashMap) drain(n *fabric.Node, i uint64) (uint64, bool) {
	old := n.Swap64(m.valueG(i), 0)
	if old&1 == 0 {
		return 0, false
	}
	n.Add64(m.countG, ^uint64(0)) // -1
	return old >> 1, true
}

// Range calls fn for every live entry as observed during one pass; entries
// concurrently inserted or deleted may or may not be seen. fn returning
// false stops the walk.
func (m *HashMap) Range(n *fabric.Node, fn func(key, value uint64) bool) {
	for i := uint64(0); i < m.capacity; i++ {
		k := n.AtomicLoad64(m.keyG(i))
		if k == 0 || k == tombstone {
			continue
		}
		v := n.AtomicLoad64(m.valueG(i))
		if v&1 == 0 {
			continue
		}
		if !fn(k, v>>1) {
			return
		}
	}
}
