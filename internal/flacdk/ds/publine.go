package ds

import (
	"encoding/binary"
	"errors"

	"flacos/internal/fabric"
)

// A published line is a one-line record that a single owner republishes
// with plain stores and any node reads without an atomic: membership's
// heartbeats, health's samples and the trace rings' event slots. It is the
// single-line publication contract of fabric/doc.go made a type. The
// commit sequence is the line's LAST word, so a write-back stores it after
// every other word and a fetch loads it before them; a reader that sees a
// new sequence sees the payload that went home with it. A checksum seeded
// by the record kind's tag covers the payload and the sequence, which
// rejects what the word orders alone do not: a fetch that overtook the
// owner's next write-back (old sequence, mixed payload), a line of another
// kind, and bits flipped at home. A line that is all zero was never
// published.
//
// Publish is one full-line store (no write-allocate fetch) and one
// write-back, so a crash between the two publishes nothing. Read is one
// fabric.ReadFresh: it costs what InvalidateRange + Read cost and leaves
// nothing resident.

// PubWords is how many payload words a published line carries.
const PubWords = 6

const (
	offPubSum = PubWords * fabric.WordSize
	offPubSeq = offPubSum + fabric.WordSize
)

// PubLine is the arena image of a published line, and a decoded one.
//
//flac:shared
type PubLine struct {
	Payload [PubWords]uint64
	Sum     uint64 // checksum of the tag, Payload and Seq
	Seq     uint64 // commit word: non-zero in every published line
}

// PubTag names a kind of published line and seeds its checksum, so a line
// of one kind never decodes as another.
type PubTag uint64

// Decode errors. Neither says anything about the record's owner: the line
// carries no information this time.
var (
	ErrPubEmpty   = errors.New("ds: published line was never published")
	ErrPubCorrupt = errors.New("ds: published line is torn or corrupt")
)

func (t PubTag) sum(seq uint64, p *[PubWords]uint64) uint64 {
	h := mix(uint64(t))
	for _, w := range p {
		h = mix(h ^ w)
	}
	return mix(h ^ seq)
}

// Encode returns the line image of payload p committed at seq, which must
// not be zero.
func (t PubTag) Encode(seq uint64, p [PubWords]uint64) [fabric.LineSize]byte {
	var b [fabric.LineSize]byte
	for i, w := range p {
		binary.LittleEndian.PutUint64(b[i*fabric.WordSize:], w)
	}
	binary.LittleEndian.PutUint64(b[offPubSum:], t.sum(seq, &p))
	binary.LittleEndian.PutUint64(b[offPubSeq:], seq)
	return b
}

// Decode validates a line image: ErrPubEmpty for an all-zero line,
// ErrPubCorrupt for one Encode under t did not produce.
func (t PubTag) Decode(b [fabric.LineSize]byte) (PubLine, error) {
	var l PubLine
	for i := range l.Payload {
		l.Payload[i] = binary.LittleEndian.Uint64(b[i*fabric.WordSize:])
	}
	l.Sum = binary.LittleEndian.Uint64(b[offPubSum:])
	l.Seq = binary.LittleEndian.Uint64(b[offPubSeq:])
	switch {
	case l == PubLine{}:
		return l, ErrPubEmpty
	case l.Seq == 0 || l.Sum != t.sum(l.Seq, &l.Payload):
		return PubLine{}, ErrPubCorrupt
	}
	return l, nil
}

// Publish writes the record to the line-aligned line g through n's cache
// and writes the line back.
func (t PubTag) Publish(n *fabric.Node, g fabric.GPtr, seq uint64, p [PubWords]uint64) {
	b := t.Encode(seq, p)
	PublishRange(n, g, b[:])
}

// Read fetches line g fresh from home memory and decodes it.
func (t PubTag) Read(n *fabric.Node, g fabric.GPtr) (PubLine, error) {
	var b [fabric.LineSize]byte
	n.ReadFresh(g, b[:])
	return t.Decode(b)
}

// A published range is the multi-line half of the publication contract
// (fabric/doc.go): the payload goes home before the fabric atomic that
// commits it, and a reader that observed the commit drops its cached copy
// before it reads the payload. The commit atomic (AtomicStore64, CAS64 or
// Swap64) and the observation stay at the call site. Both primitives leave
// the range resident; a range nobody reads back through the cache moves
// with fabric's WriteFresh or ReadFresh instead.

// PublishRange writes data to [g, g+len(data)) through n's cache and
// writes the range back home.
func PublishRange(n *fabric.Node, g fabric.GPtr, data []byte) {
	n.Write(g, data)
	n.WriteBackRange(g, uint64(len(data)))
}

// ReadRange drops [g, g+len(buf)) from n's cache and reads it into buf
// through the cache, fetching every line from home memory.
func ReadRange(n *fabric.Node, g fabric.GPtr, buf []byte) {
	n.InvalidateRange(g, uint64(len(buf)))
	n.Read(g, buf)
}
