package fabric

import "encoding/binary"

// Legacy per-line cache maintenance, pinned verbatim from the pre-batching
// implementation. These are NOT part of the fabric's public contract:
// they exist so the differential equivalence suite can drive the old
// semantics against the new ranged fast path on twin fabrics, and so the
// fabric benchmark can report an honest "per-line baseline" for the
// ranged speedup gate. The invalidate and flush forms, which only the
// suite drives, live in equivalence_test.go. They deliberately keep every
// cost the rewrite removed — one cache-lock acquisition per line,
// per-line atomic stats bumps, and an unconditional hook-pointer load per
// event — and they do not count toward cache.maintLocks, which pins the
// NEW paths' contract.

// WriteBackRangePerLine is the pre-batching WriteBackRange: lock, harvest
// and write back one line at a time, bumping atomic stats and firing a
// per-line OpWriteBack event for each. The latency charge was already a
// single pipelined burst for the whole range, so virtual time agrees with
// the ranged path to the nanosecond — only wall cost differs.
func (n *Node) WriteBackRangePerLine(g GPtr, size uint64) {
	n.checkAlive()
	if size == 0 {
		return
	}
	n.fab.checkRange(g, size)
	c := n.cache
	first, last := LineSpan(g, size)
	written := 0
	for li := first; li <= last; li++ {
		c.mu.Lock()
		ln := c.lookup(li)
		var cp [LineSize]byte
		doWB := ln != nil && ln.dirty
		if doWB {
			cp = ln.data
			ln.dirty = false
		}
		c.mu.Unlock()
		if doWB {
			if fl := n.fab.writeLineHomePerWord(li, &cp); fl > 0 {
				n.stats.FaultsInjected.Add(fl)
			}
			n.stats.WriteBacks.Add(1)
			n.fireOp(OpWriteBack, li, 1)
			written++
		}
	}
	if written > 0 {
		n.charge(n.globalCost(written))
	}
}

// writeLineHomePerWord is the pre-batching writeLineHome: it consults the
// corruption injector per WORD — an atomic rate load and a call for each
// of the line's eight words — where the current path checks the armed
// rates once per line (or once per batch). With a rate armed the draw
// sequence is identical to the current path, so the differential suite
// can run it with faults enabled; only the disarmed wall cost differs.
func (f *Fabric) writeLineHomePerWord(li uint64, src *[LineSize]byte) (faults uint64) {
	if f.faults.dropWriteBack() {
		return 1 // the line silently never reaches home memory
	}
	base := li * LineSize / WordSize
	for w := uint64(0); w < LineSize/WordSize; w++ {
		v := binary.LittleEndian.Uint64(src[w*WordSize:])
		if cv := f.faults.corruptOnWrite(v); cv != v {
			v = cv
			faults++
		}
		f.homeStoreWord(base+w, v)
	}
	return faults
}
