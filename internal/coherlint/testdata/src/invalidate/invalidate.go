// Package invalidate is flacvet corpus: planted violations of rule 3
// (read-without-invalidate), including the unconditional-skip mirror of
// the torture harness's SetBrokenSkipPopInvalidate bug, plus the
// correct consume idioms.
package invalidate

import "flacos/internal/fabric"

// ring mirrors ds.SPSCRing's global-memory layout so the corpus can
// replay its consume path with the planted bug hard-wired on. The real
// ring's endpoint-private cursor views are left out — every pop here goes
// to the home words — since rule 3 is about the slot's lines, not cursors.
type ring struct {
	headG, tailG, slots fabric.GPtr
	slotSize, capacity  uint64
}

func (r *ring) slotG(pos uint64) fabric.GPtr {
	return r.slots.Add((pos & (r.capacity - 1)) * r.slotSize)
}

// brokenPop is SPSCRing.TryPop with the torture harness's
// ring-invalidate bug (SetBrokenSkipPopInvalidate) made unconditional:
// the consumer observes the producer's tail publication but decodes the
// slot through whatever stale lines its cache still holds.
func (r *ring) brokenPop(n *fabric.Node, buf []byte) (int, bool) {
	h := n.AtomicLoad64(r.headG)
	if h == n.AtomicLoad64(r.tailG) {
		return 0, false
	}
	s := r.slotG(h)
	ln := n.Load64(s) // want `no dominating InvalidateRange`
	n.Read(s.Add(8), buf[:ln])
	n.AtomicStore64(r.headG, h+1)
	return int(ln), true
}

// conditionalPop invalidates on only one branch — exactly the shape the
// torture toggle gives the real ring; the skipping path is the bug.
func (r *ring) conditionalPop(n *fabric.Node, buf []byte, broken bool) (int, bool) {
	h := n.AtomicLoad64(r.headG)
	if h == n.AtomicLoad64(r.tailG) {
		return 0, false
	}
	s := r.slotG(h)
	if !broken {
		n.InvalidateRange(s, r.slotSize)
	}
	ln := n.Load64(s) // want `no dominating InvalidateRange`
	n.Read(s.Add(8), buf[:ln])
	n.AtomicStore64(r.headG, h+1)
	return int(ln), true
}

// goodPop is the contract idiom: acquire, invalidate, then decode.
func (r *ring) goodPop(n *fabric.Node, buf []byte) (int, bool) {
	h := n.AtomicLoad64(r.headG)
	if h == n.AtomicLoad64(r.tailG) {
		return 0, false
	}
	s := r.slotG(h)
	n.InvalidateRange(s, r.slotSize)
	ln := n.Load64(s)
	n.Read(s.Add(8), buf[:ln])
	n.AtomicStore64(r.headG, h+1)
	return int(ln), true
}

// goodPopBothBranches invalidates on every path before decoding.
func (r *ring) goodPopBothBranches(n *fabric.Node, buf []byte, wide bool) (int, bool) {
	h := n.AtomicLoad64(r.headG)
	if h == n.AtomicLoad64(r.tailG) {
		return 0, false
	}
	s := r.slotG(h)
	if wide {
		n.InvalidateAll()
	} else {
		n.InvalidateRange(s, r.slotSize)
	}
	ln := n.Load64(s)
	n.AtomicStore64(r.headG, h+1)
	return int(ln), true
}

// readVersioned is the VersionedCell read idiom: atomic acquire of the
// current version pointer, invalidate, plain read. No diagnostic.
func readVersioned(n *fabric.Node, headG fabric.GPtr, buf []byte) {
	cur := fabric.GPtr(n.AtomicLoad64(headG))
	n.InvalidateRange(cur, uint64(len(buf)))
	n.Read(cur, buf)
}

// freshIndexThenEntry is the line-probe idiom: the index slot is read
// past the cache (no atomic, and no diagnostic for the ReadFresh itself,
// which carries its own invalidate), and the entry it points at is
// invalidated before it is decoded. No diagnostic.
func freshIndexThenEntry(n *fabric.Node, slotG fabric.GPtr, buf []byte) {
	var slot [16]byte
	n.ReadFresh(slotG, slot[:])
	e := fabric.GPtr(uint64(slot[8]) | uint64(slot[9])<<8)
	n.InvalidateRange(e, uint64(len(buf)))
	n.Read(e, buf)
}

// brokenFreshIndexThenEntry learns the entry's address the same way and
// then decodes the entry through the cache: ReadFresh freshened the slot's
// own range, not the block a word inside it publishes.
func brokenFreshIndexThenEntry(n *fabric.Node, slotG fabric.GPtr, buf []byte) {
	var slot [16]byte
	n.ReadFresh(slotG, slot[:])
	e := fabric.GPtr(uint64(slot[8]) | uint64(slot[9])<<8)
	n.Read(e, buf) // want `after the ReadFresh at .* no dominating InvalidateRange`
}

// plainOnly never acquires through a fabric atomic, so its cached reads
// are private data and need no invalidate. No diagnostic.
func plainOnly(n *fabric.Node, g fabric.GPtr) uint64 {
	n.Store64(g, 7)
	return n.Load64(g)
}
