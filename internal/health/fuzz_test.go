package health

import (
	"bytes"
	"errors"
	"testing"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
)

// Word offsets in the health line image (ds.PubLine).
const (
	offGen     = 8  // payload word 1
	offLatEWMA = 16 // payload word 2
	offSeq     = 56 // the commit sequence
)

// Health lines are read straight out of the arena, so under torture
// faults the detector can see anything. ds's FuzzPubLineDecode fuzzes the
// line itself; this target checks that every line DecodeRecord accepts
// is a canonical encoding with in-range fields.
func FuzzHealthRecordDecode(f *testing.F) {
	// Canonical records at a few shapes.
	f.Add(lineBytes(EncodeRecord(sample{Record{Node: 1, Slot: 3, Generation: 1, LatEWMANS: 450, ErrEWMAMilli: 120, LinkHops: 0}, 1})), 3)
	f.Add(lineBytes(EncodeRecord(sample{Record{Node: 0, Slot: 0, Generation: 1 << 32, LatEWMANS: 1 << 50, ErrEWMAMilli: 0, LinkHops: 255}, 1 << 50})), 0)
	// Never-published slot (all zero) and a torn variant of it.
	f.Add(make([]byte, recordBytes), 0)
	torn := lineBytes(EncodeRecord(sample{Record{Node: 2, Slot: 2, Generation: 7, LatEWMANS: 900}, 9}))
	torn[offLatEWMA] ^= 0x01 // latency word from a different publish
	f.Add(torn, 2)
	// Valid checksum but out-of-policy fields.
	f.Add(lineBytes(EncodeRecord(sample{Record{Node: 4, Slot: 4, Generation: 0}, 3})), 4)
	f.Add(lineBytes(EncodeRecord(sample{Record{Node: 5, Slot: 5, Generation: 1<<32 + 1}, 3})), 5)

	f.Fuzz(func(t *testing.T, data []byte, wantSlot int) {
		var line [recordBytes]byte
		copy(line[:], data)
		wantSlot &= 0xff // slots are uint8-addressed, like the table's

		rec, err := DecodeRecord(line, wantSlot)
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
		if rec.Seq == 0 {
			t.Fatal("accepted a record with seq 0")
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
	r := sample{Record{Node: 7, Slot: 9, Generation: 42, LatEWMANS: 1234, ErrEWMAMilli: 567,
		LinkHops: 6}, 1000}
	got, err := DecodeRecord(EncodeRecord(r), 9)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != r {
		t.Fatalf("round trip: got %+v want %+v", got, r)
	}
}

func TestRecordRejections(t *testing.T) {
	valid := sample{Record{Node: 1, Slot: 2, Generation: 5, LatEWMANS: 800, ErrEWMAMilli: 10,
		LinkHops: 3}, 77}

	cases := []struct {
		name    string
		mutate  func(*[recordBytes]byte)
		slot    int
		wantErr error
	}{
		{"zero line", func(b *[recordBytes]byte) { *b = [recordBytes]byte{} }, 2, ds.ErrPubEmpty},
		{"torn zero line", func(b *[recordBytes]byte) {
			*b = [recordBytes]byte{}
			b[offGen] = 0x5a // payload word landed, seq word did not
		}, 2, ds.ErrPubCorrupt},
		{"bad magic", func(b *[recordBytes]byte) {
			// The kind tag seeding the checksum is the record's magic: a
			// line of another kind with the same words is rejected.
			*b = (sampleLine + 1).Encode(valid.Seq, valid.payload())
		}, 2, ds.ErrPubCorrupt},
		{"flipped latency", func(b *[recordBytes]byte) { b[offLatEWMA] ^= 0x01 }, 2, ds.ErrPubCorrupt},
		{"flipped seq", func(b *[recordBytes]byte) { b[offSeq+2] ^= 0x10 }, 2, ds.ErrPubCorrupt},
		{"flipped reserved bits", func(b *[recordBytes]byte) { b[7] = 1 }, 2, ds.ErrPubCorrupt},
		{"wrong slot", nil, 3, ErrBadSlot},
		{"zero generation", func(b *[recordBytes]byte) {
			*b = EncodeRecord(sample{Record{Node: 1, Slot: 2, Generation: 0}, 77})
		}, 2, ErrBadGen},
		{"oversized generation", func(b *[recordBytes]byte) {
			*b = EncodeRecord(sample{Record{Node: 1, Slot: 2, Generation: 1<<32 + 1}, 77})
		}, 2, ErrBadGen},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			line := EncodeRecord(valid)
			if tc.mutate != nil {
				tc.mutate(&line)
			}
			_, err := DecodeRecord(line, tc.slot)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("got %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// A torn publish — any strict byte-prefix of the new line over the old
// one — must either decode as the OLD record or be rejected; it must
// never surface fields from the new publish, because fabric commits
// flushed words in ascending order and the seq (last word) is the
// publication gate.
func TestTornPublishNeverYieldsNewFields(t *testing.T) {
	old := EncodeRecord(sample{Record{Node: 1, Slot: 0, Generation: 3, LatEWMANS: 500, LinkHops: 0}, 10})
	next := EncodeRecord(sample{Record{Node: 1, Slot: 0, Generation: 3, LatEWMANS: 5000, LinkHops: 12}, 11})
	for cut := 0; cut < recordBytes; cut++ { // cut=recordBytes would be a full publish
		line := old
		copy(line[:cut], next[:cut])
		if line == next {
			continue // prefix happens to reconstruct the complete publish
		}
		rec, err := DecodeRecord(line, 0)
		if err != nil {
			continue
		}
		if rec.Seq != 10 || rec.LatEWMANS != 500 || rec.LinkHops != 0 {
			t.Fatalf("cut %d: torn line decoded to new-publish fields: %+v", cut, rec)
		}
	}
}

// sample is a health record with the sequence its line carries.
type sample struct {
	Record
	Seq uint64
}

// EncodeRecord packs s into its line image.
func EncodeRecord(s sample) [recordBytes]byte { return sampleLine.Encode(s.Seq, s.payload()) }

// DecodeRecord unpacks a line image and validates it as checkRecord does.
func DecodeRecord(b [recordBytes]byte, wantSlot int) (sample, error) {
	l, err := sampleLine.Decode(b)
	r, err := checkRecord(l, err, wantSlot)
	return sample{r, l.Seq}, err
}

// readSample is readRecord with the line's sequence.
func (l *Layer) readSample(n *fabric.Node, slot int) (sample, error) {
	pl, err := sampleLine.Read(n, l.recSlotG(slot))
	r, err := checkRecord(pl, err, slot)
	return sample{r, pl.Seq}, err
}
