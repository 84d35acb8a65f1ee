package membership

import (
	"errors"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
)

// The heartbeat record is the membership hot path: one ds published line
// per node slot that the owner republishes every tick (one full-line store
// and one write-back) and observers read with one fresh line fetch — no
// fabric atomics on either side. State transitions live in the slot's
// control word (Table.ctl). Payload words (the beat is the commit sequence):
//
//	p0 node(8) | slot(8)
//	p1 generation   (bumped every time the slot is (re)claimed)
//	p2 incarnation  (bumped by the owner to refute a false suspicion)
//	p3 timestamp    (owner's virtual-clock ns at publish)
const (
	recordBytes = fabric.LineSize

	heartbeatLine ds.PubTag = 0x6d656d6265727368 // "membersh"
)

// Record is one decoded heartbeat observation.
type Record struct {
	Node        uint8
	Slot        uint8
	Generation  uint64
	Incarnation uint64
	TS          uint64 // owner's virtual-clock ns at publish
	Beat        uint64 // strictly increasing tick counter
}

// Decode validation errors beyond ds.ErrPubEmpty and ds.ErrPubCorrupt.
// The detector treats every one of them as "no usable beat": a record
// torn by a crash, corrupted in transit, or left by an earlier occupant
// must never drive a state transition.
var (
	ErrBadSlot  = errors.New("membership: record slot mismatch")
	ErrBadGen   = errors.New("membership: record generation invalid")
	ErrFutureTS = errors.New("membership: record timestamp in the future")
)

func (r Record) payload() [ds.PubWords]uint64 {
	return [ds.PubWords]uint64{uint64(r.Node)<<8 | uint64(r.Slot), r.Generation, r.Incarnation, r.TS}
}

// readRecord reads slot's heartbeat line fresh from home through n.
func (t *Table) readRecord(n *fabric.Node, slot int, maxVNS uint64) (Record, error) {
	l, err := heartbeatLine.Read(n, t.hbSlotG(slot))
	return checkRecord(l, err, slot, maxVNS)
}

// checkRecord validates a heartbeat line read from the arena for slot
// wantSlot. maxVNS is the freshest virtual-clock value the reader can
// vouch for rack-wide (plus any slack it tolerates); a record stamped
// beyond it cannot have been produced by a well-behaved owner and is
// rejected. A failed check means the observation carries no information
// — never that the node is alive or dead.
func checkRecord(l ds.PubLine, err error, wantSlot int, maxVNS uint64) (Record, error) {
	if err != nil {
		return Record{}, err
	}
	p := l.Payload
	r := Record{Node: uint8(p[0] >> 8), Slot: uint8(p[0]), Generation: p[1], Incarnation: p[2], TS: p[3], Beat: l.Seq}
	switch {
	case int(r.Slot) != wantSlot:
		return Record{}, ErrBadSlot
	case r.Generation == 0 || r.Generation > 1<<32:
		return Record{}, ErrBadGen
	case r.TS > maxVNS:
		return Record{}, ErrFutureTS
	}
	return r, nil
}
