package ds

import (
	"encoding/binary"
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
//
// The probe reads the index by the line, not by the word. A fabric atomic
// is for CHANGING a slot; learning what it holds is one fresh line fetch
// (fabric.ReadFresh), which brings the four slots of a line in one round
// trip and leaves nothing in the cache. Every mutation stays the atomic it
// was: the claim CAS, the value store / Swap / CAS, the count, Delete's two
// steps, Put's re-check of the key.
//
// Why reading slots out of a line copy is linearizable. A fetch reads a
// line's words in descending order (fabric/doc.go), so within a slot the
// VALUE word is read before the KEY word, and a higher slot of the line
// before a lower one. A slot's key word only goes 0 -> K -> tombstone; an
// insert writes key then value, a delete tombstones the key and then
// drains the value; the value word of a slot whose key word is 0 is 0.
//
//   - Copy shows (key K, value v present). The key was 0 or K when v was
//     read; a present value means it was not 0. So (K, v) is a state the
//     slot really held, and the op linearizes where v was read.
//   - Copy shows (key K, value 0). When the value word was read the slot
//     was either claimed and not yet published — absent, exactly as under
//     per-word loads — or still empty, which is the empty-slot case below.
//   - Copy shows another key or a tombstone: the slot can never be bound
//     to K again, whenever it was read; the walk moves on.
//   - Copy shows an empty slot E: the walk ends, absent. At most one slot
//     has key word K at any instant (an inserter passes a slot only after
//     seeing it bound to another key or dead, which is permanent, and
//     claims the first empty one by CAS), and while E is empty that slot
//     lies before E in the probe sequence. The walk saw every such slot as
//     another key's or dead. One it read BEFORE E cannot have held K when
//     E was read. One it read AFTER E — a lower slot of E's own line — may
//     have: then its delete fell between the two reads, and right after
//     that delete no slot holds K, because a re-insert claims a later slot
//     (tombstones are never reused) by a CAS that comes later still. Either
//     way there is an instant inside the operation at which K was absent.
//
// A claim is validated by its CAS, never by the copy; a lost CAS refetches.
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
		slots:    f.Reserve(c*slotBytes, fabric.LineSize),
		capacity: c,
		countG:   f.Reserve(fabric.LineSize, fabric.LineSize),
	}
}

// Len returns the number of live entries.
func (m *HashMap) Len(n *fabric.Node) uint64 { return n.AtomicLoad64(m.countG) }

func (m *HashMap) keyG(i uint64) fabric.GPtr   { return m.slots.Add(i * slotBytes) }
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

// slotsPerLine is how many (key, value) slots share one cache line. The
// table is line-aligned, so slot i's line starts at slot i &^ (slotsPerLine-1).
const (
	slotBytes    = 2 * fabric.WordSize
	slotsPerLine = fabric.LineSize / slotBytes
)

// probe walks key's probe sequence until it reaches the slot bound to key
// or the first empty one, reading slots out of fetched copies of their
// lines: one fresh, uncached line fetch (fabric.ReadFresh) per line the
// walk touches, no fabric atomic, and the slots that share a line with the
// one the walk is at are examined from the same copy. For a found slot it
// also returns the value word of that copy (HashMap's comment argues why
// that pair is a state the slot really held). With claim it binds the
// empty slot to key (CAS 0 -> key) and the caller publishes the value; a
// lost CAS means the copy is out of date, so the line is fetched again and
// the slot re-examined. A full table is then a sizing error and panics.
func (m *HashMap) probe(n *fabric.Node, key uint64, claim bool) (i, seen uint64, end int) {
	checkKey(key)
	mask := m.capacity - 1
	i = mix(key) & mask
	var line [fabric.LineSize]byte
	const none = ^uint64(0)
	base := none // first slot of the line copied into line
	for probes := uint64(0); probes < m.capacity; {
		if b := i &^ (slotsPerLine - 1); b != base {
			base = b
			n.ReadFresh(m.keyG(base), line[:])
		}
		off := (i - base) * slotBytes
		switch k := binary.LittleEndian.Uint64(line[off:]); {
		case k == key:
			return i, binary.LittleEndian.Uint64(line[off+fabric.WordSize:]), probeFound
		case k == 0 && !claim:
			return i, 0, probeAbsent
		case k == 0:
			if n.CAS64(m.keyG(i), 0, key) {
				return i, 0, probeClaimed
			}
			base = none // lost the slot; fetch again (the winner may be our key)
			continue
		}
		i, probes = (i+1)&mask, probes+1 // another key's slot or a tombstone
	}
	if claim {
		panic(fmt.Sprintf("ds: HashMap full (capacity %d, tombstones count)", m.capacity))
	}
	return 0, 0, probeAbsent
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
		i, _, end := m.probe(n, key, true)
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
// value is absent. No fabric atomic: one line fetch when the key sits in
// its home slot's line. The value is the one in the fetched copy, and it
// is what the handle's CAS starts from — if it has moved since, that CAS
// fails and retries, it never installs over a value the caller did not see.
func (m *HashMap) Find(n *fabric.Node, key uint64) (Slot, uint64, bool) {
	i, v, end := m.probe(n, key, false)
	if end != probeFound || v&1 == 0 {
		return Slot{}, 0, false // unbound, or claimed but value not yet published, or deleted
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
		i, v, end := m.probe(n, key, true)
		if end == probeClaimed {
			m.publish(n, i, enc)
			return value, true
		}
		if v&1 == 1 {
			return v >> 1, false
		}
		// The claimer has not yet published its value, or a delete is
		// draining it: probe again (past the slot, once it is a tombstone).
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
	i, _, end := m.probe(n, key, false)
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
	i, _, end := m.probe(n, key, false)
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

// rangeLines is how many lines of the table Range fetches per transfer: a
// 4 KiB buffer on the stack, 256 slots for one pipelined read.
const rangeLines = 64

// Range calls fn for every live entry as observed during one pass; entries
// concurrently inserted or deleted may or may not be seen. fn returning
// false stops the walk. The table streams through in fresh, uncached
// multi-line reads; each (key, value) pair comes out of one line copy, so
// it is a state its slot really held.
func (m *HashMap) Range(n *fabric.Node, fn func(key, value uint64) bool) {
	var buf [rangeLines * fabric.LineSize]byte
	for base := uint64(0); base < m.capacity; {
		chunk := buf[:min(uint64(len(buf)), (m.capacity-base)*slotBytes)]
		n.ReadFresh(m.keyG(base), chunk)
		for off := 0; off < len(chunk); off += slotBytes {
			k := binary.LittleEndian.Uint64(chunk[off:])
			v := binary.LittleEndian.Uint64(chunk[off+fabric.WordSize:])
			if k == 0 || k == tombstone || v&1 == 0 {
				continue
			}
			if !fn(k, v>>1) {
				return
			}
		}
		base += uint64(len(chunk)) / slotBytes
	}
}
