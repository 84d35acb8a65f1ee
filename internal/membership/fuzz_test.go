package membership

import (
	"bytes"
	"errors"
	"testing"

	"flacos/internal/flacdk/ds"
)

// Word offsets in the heartbeat line image (ds.PubLine).
const (
	offGen      = 8  // payload word 1
	offReserved = 32 // payload word 4, always zero
	offBeat     = 56 // the commit sequence
)

// Heartbeat lines are read straight out of the arena, so after a crash
// or under torture faults the detector can see anything. ds's
// FuzzPubLineDecode fuzzes the line itself; this target checks that
// every line DecodeRecord accepts is a canonical encoding with in-range
// fields.
func FuzzHeartbeatRecordDecode(f *testing.F) {
	// Canonical records at a few shapes.
	f.Add(lineBytes(EncodeRecord(Record{Node: 1, Slot: 3, Generation: 1, Incarnation: 0, TS: 1000, Beat: 1})), 3, uint64(1<<40))
	f.Add(lineBytes(EncodeRecord(Record{Node: 0, Slot: 0, Generation: 1 << 32, Incarnation: 0xffff, TS: 0, Beat: 1 << 50})), 0, uint64(0))
	// Never-published slot (all zero) and a torn variant of it.
	f.Add(make([]byte, recordBytes), 0, uint64(1<<40))
	torn := lineBytes(EncodeRecord(Record{Node: 2, Slot: 2, Generation: 7, TS: 500, Beat: 9}))
	torn[offGen] ^= 0x01 // generation word from a different publish
	f.Add(torn, 2, uint64(1<<40))
	// Valid checksum but out-of-policy fields.
	f.Add(lineBytes(EncodeRecord(Record{Node: 4, Slot: 4, Generation: 0, TS: 10, Beat: 3})), 4, uint64(1<<40))
	f.Add(lineBytes(EncodeRecord(Record{Node: 5, Slot: 5, Generation: 2, TS: 1 << 60, Beat: 3})), 5, uint64(1<<30))

	f.Fuzz(func(t *testing.T, data []byte, wantSlot int, maxVNS uint64) {
		var line [recordBytes]byte
		copy(line[:], data)
		wantSlot &= 0xff // slots are uint8-addressed, like the table's

		rec, err := DecodeRecord(line, wantSlot, maxVNS)
		if err != nil {
			return // rejection is always safe; acceptance carries the burden
		}
		// Anything accepted must satisfy the policy the detector relies on.
		if int(rec.Slot) != wantSlot {
			t.Fatalf("accepted record for slot %d when reading slot %d", rec.Slot, wantSlot)
		}
		if rec.Generation == 0 || rec.Generation > 1<<32 {
			t.Fatalf("accepted out-of-range generation %#x", rec.Generation)
		}
		if rec.TS > maxVNS {
			t.Fatalf("accepted future timestamp %d > maxVNS %d", rec.TS, maxVNS)
		}
		if rec.Beat == 0 {
			t.Fatal("accepted a record with beat 0")
		}
		// And must be exactly a canonical encoding: no accepted line that
		// EncodeRecord could not itself have produced.
		re := EncodeRecord(rec)
		if !bytes.Equal(re[:], line[:]) {
			t.Fatalf("accepted non-canonical line:\n got %x\nwant %x", line, re)
		}
	})
}

func lineBytes(b [recordBytes]byte) []byte { return b[:] }

func TestRecordRoundTrip(t *testing.T) {
	r := Record{Node: 7, Slot: 9, Generation: 42, Incarnation: 3, TS: 123456789, Beat: 1000}
	got, err := DecodeRecord(EncodeRecord(r), 9, 1<<40)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != r {
		t.Fatalf("round trip: got %+v want %+v", got, r)
	}
}

func TestRecordRejections(t *testing.T) {
	valid := Record{Node: 1, Slot: 2, Generation: 5, Incarnation: 1, TS: 1000, Beat: 77}
	maxVNS := uint64(1 << 40)

	cases := []struct {
		name    string
		mutate  func(*[recordBytes]byte)
		slot    int
		max     uint64
		wantErr error
	}{
		{"zero line", func(b *[recordBytes]byte) { *b = [recordBytes]byte{} }, 2, maxVNS, ds.ErrPubEmpty},
		{"torn zero line", func(b *[recordBytes]byte) {
			*b = [recordBytes]byte{}
			b[offGen] = 0x5a // payload word landed, beat word did not
		}, 2, maxVNS, ds.ErrPubCorrupt},
		{"bad magic", func(b *[recordBytes]byte) {
			// The kind tag seeding the checksum is the record's magic: a
			// line of another kind with the same words is rejected.
			*b = (heartbeatLine + 1).Encode(valid.Beat, valid.payload())
		}, 2, maxVNS, ds.ErrPubCorrupt},
		{"flipped generation", func(b *[recordBytes]byte) { b[offGen] ^= 0x01 }, 2, maxVNS, ds.ErrPubCorrupt},
		{"flipped beat", func(b *[recordBytes]byte) { b[offBeat+2] ^= 0x10 }, 2, maxVNS, ds.ErrPubCorrupt},
		{"flipped reserved word", func(b *[recordBytes]byte) { b[offReserved] = 1 }, 2, maxVNS, ds.ErrPubCorrupt},
		{"wrong slot", nil, 3, maxVNS, ErrBadSlot},
		{"zero generation", func(b *[recordBytes]byte) {
			*b = EncodeRecord(Record{Node: 1, Slot: 2, Generation: 0, TS: 1000, Beat: 77})
		}, 2, maxVNS, ErrBadGen},
		{"oversized generation", func(b *[recordBytes]byte) {
			*b = EncodeRecord(Record{Node: 1, Slot: 2, Generation: 1<<32 + 1, TS: 1000, Beat: 77})
		}, 2, maxVNS, ErrBadGen},
		{"future timestamp", nil, 2, 999, ErrFutureTS},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			line := EncodeRecord(valid)
			if tc.mutate != nil {
				tc.mutate(&line)
			}
			_, err := DecodeRecord(line, tc.slot, tc.max)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("got %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// A torn publish — any strict byte-prefix of the new line over the old
// one — must either decode as the OLD record or be rejected; it must
// never surface fields from the new publish, because fabric commits
// flushed words in ascending order and the beat (last word) is the
// publication gate.
func TestTornPublishNeverYieldsNewFields(t *testing.T) {
	old := EncodeRecord(Record{Node: 1, Slot: 0, Generation: 3, Incarnation: 0, TS: 5000, Beat: 10})
	next := EncodeRecord(Record{Node: 1, Slot: 0, Generation: 3, Incarnation: 1, TS: 6000, Beat: 11})
	for cut := 0; cut < recordBytes; cut++ { // cut=recordBytes would be a full publish
		line := old
		copy(line[:cut], next[:cut])
		if line == next {
			continue // prefix happens to reconstruct the complete publish
		}
		rec, err := DecodeRecord(line, 0, 1<<40)
		if err != nil {
			continue
		}
		if rec.Beat != 10 || rec.Incarnation != 0 || rec.TS != 5000 {
			t.Fatalf("cut %d: torn line decoded to new-publish fields: %+v", cut, rec)
		}
	}
}

// EncodeRecord packs r into its line image.
func EncodeRecord(r Record) [recordBytes]byte { return heartbeatLine.Encode(r.Beat, r.payload()) }

// DecodeRecord unpacks a line image and validates it as checkRecord does.
func DecodeRecord(b [recordBytes]byte, wantSlot int, maxVNS uint64) (Record, error) {
	l, err := heartbeatLine.Decode(b)
	return checkRecord(l, err, wantSlot, maxVNS)
}
