package trace

import (
	"encoding/binary"
	"testing"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
)

// FuzzTraceEventRoundTrip fuzzes the 64-byte slot format on three
// fronts: Encode/Decode must round-trip every event exactly; Decode of
// an arbitrary payload image must canonicalize (re-encoding what was
// decoded changes nothing); and the collector must survive a published
// slot being truncated or bit-flipped at home — the torn shapes a crash
// mid-write-back or a fault-injected line can leave — by skipping the
// slot, never by panicking or surfacing an event that fails the sanity
// checks.
func FuzzTraceEventRoundTrip(f *testing.F) {
	f.Add(uint64(123), uint8(1), uint8(4), uint8(0), uint8(1), uint64(7), uint64(9), []byte{0xff}, uint8(60), uint8(3))
	f.Add(uint64(0), uint8(0), uint8(0), uint8(0), uint8(0), uint64(0), uint64(0), []byte{}, uint8(0), uint8(0))
	f.Add(^uint64(0), uint8(255), uint8(255), uint8(255), uint8(255), ^uint64(0), ^uint64(0), []byte{1, 2, 3}, uint8(56), uint8(255))
	f.Fuzz(func(t *testing.T, ts uint64, sub, kind, node, flags uint8, arg0, arg1 uint64, raw []byte, corruptOff, corruptXor uint8) {
		// 1. Exact round-trip for every representable event.
		ev := Event{
			TS:    ts,
			Sub:   Subsys(sub),
			Kind:  Kind(kind),
			Node:  node,
			Flags: Flags(flags),
			Arg0:  arg0,
			Arg1:  arg1,
		}
		if got := Decode(Encode(ev)); got != ev {
			t.Fatalf("round trip mangled event:\n in  %+v\n out %+v", ev, got)
		}

		// 2. Decode of arbitrary words canonicalizes: whatever meaning
		// Decode assigns to a hostile image, Encode preserves it.
		var img [ds.PubWords * 8]byte
		copy(img[:], raw)
		var words [ds.PubWords]uint64
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(img[8*i:])
		}
		d1 := Decode(words)
		if d2 := Decode(Encode(d1)); d2 != d1 {
			t.Fatalf("canonicalization unstable:\n first  %+v\n second %+v", d1, d2)
		}

		// 3. Corrupt a genuinely published slot at home and collect. The
		// fuzzer picks the byte and the mask, covering payload,
		// checksum and sequence-word tears (all rejected by the line's
		// checksum) and the identity flip (mask 0) which must still
		// collect cleanly.
		fab := fabric.New(fabric.Config{GlobalSize: 1 << 16, Nodes: 1})
		rec := New(fab, Config{RingCap: 2})
		w := rec.Writer(0)
		w.Emit(SubApp, KMark, FlagBegin, arg0, arg1)
		n := fab.Node(0)

		slot := rec.ringG // node 0, slot 0: the ticket-0 event just emitted
		var line [slotBytes]byte
		n.InvalidateRange(slot, slotBytes)
		n.Read(slot, line[:])
		published := line
		line[corruptOff%slotBytes] ^= corruptXor
		if len(raw) > 0 && raw[0]&1 == 1 {
			// Truncate: zero the line from the corruption point on, the
			// shape of a write-back that never finished.
			for i := int(corruptOff % slotBytes); i < slotBytes; i++ {
				line[i] = 0
			}
		}
		n.Write(slot, line[:])
		n.WriteBackRange(slot, slotBytes)

		snap := rec.Collector().SnapshotNode(n, 0)
		if line != published && len(snap.Events) != 0 {
			t.Fatalf("collector accepted a corrupted slot as %+v", snap.Events[0])
		}
		for _, got := range snap.Events {
			if int(got.Node) != 0 || got.Sub >= numSubsys || got.Kind >= numKinds {
				t.Fatalf("collector surfaced an insane event from a corrupt slot: %+v", got)
			}
			if got.Seq != 0 {
				t.Fatalf("node 0 emitted only ticket 0, got seq %d", got.Seq)
			}
			seq := binary.LittleEndian.Uint64(line[slotBytes-8:])
			if seq != 1 {
				t.Fatalf("collector accepted slot with sequence word %d as ticket 0", seq)
			}
		}
	})
}
