// Package health is the rack's gray-failure layer: an anomaly detector
// that folds per-node performance signals into arena-resident health
// records, and a self-healing controller that drains, fences and rejoins
// degrading nodes BEFORE the liveness detector declares them dead.
//
// Membership answers "is the node there?"; health answers "is the node
// still pulling its weight?". A gray-failing node — a flaky interconnect
// link, a slow-degrading DIMM, CPUs losing every claim race — keeps its
// heartbeat perfectly healthy while its latency tail poisons the whole
// rack. The health layer publishes each node's own view of its signals
// (latency EWMA, error EWMA, link degradation) in one ds published line
// per slot, like membership's heartbeats, and every agent independently
// evaluates every slot against the rack median. Detection state
// transitions ride a separate fabric-atomics-only control line,
// CAS-guarded exactly like membership's, and surface as
// EvDegraded/EvRecovered events on the membership event stream. A node's
// health agent has no goroutine of its own: it is a step of its membership
// member's agent loop, run once per heartbeat tick after the liveness
// pass, so liveness and health events reach a member's subscribers as one
// ordered feed. Plane assembles the rack's whole control plane on these
// parts: the membership (re)join protocol, the controller on node 0's
// stream, and the agents.
package health

import (
	"errors"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
)

// The health record is a ds published line per node slot, republished by
// the owner every tick and read by every agent like membership's heartbeat
// line. Verdicts live in the slot's verdict word (Layer.ctl). Payload words
// (the sample counter is the commit sequence):
//
//	p0 node(8) | slot(8)
//	p1 generation   (the slot's membership generation when sampled)
//	p2 latency EWMA (ns per fabric op, owner-smoothed)
//	p3 error EWMA   (errors per observation window, fixed-point millis)
//	p4 linkHops     (the node's current extra fabric hops)
const (
	recordBytes = fabric.LineSize

	sampleLine ds.PubTag = 0x6865616c74687265 // "healthre"
)

// ewmaScale is the fixed-point scale for the error EWMA word: the
// owner's float EWMA is published as round(rate * ewmaScale), giving
// milli-error resolution without floats in the line image.
const ewmaScale = 1000

// Record is one decoded health observation: the owner's own smoothed
// view of its signals at publish time.
type Record struct {
	Node         uint8
	Slot         uint8
	Generation   uint64 // membership generation the sample belongs to
	LatEWMANS    uint64 // smoothed ns per fabric op
	ErrEWMAMilli uint64 // smoothed errors per window, fixed-point 1/1000
	LinkHops     uint64 // extra fabric hops on the node's links
}

// Decode validation errors beyond ds.ErrPubEmpty and ds.ErrPubCorrupt.
// The detector treats every one of them as "no usable sample": a record
// torn by a crash, corrupted in transit, or left over from an earlier
// generation must never drive a detection transition.
var (
	ErrBadSlot = errors.New("health: record slot mismatch")
	ErrBadGen  = errors.New("health: record generation invalid")
)

func (r Record) payload() [ds.PubWords]uint64 {
	return [ds.PubWords]uint64{uint64(r.Node)<<8 | uint64(r.Slot), r.Generation, r.LatEWMANS,
		r.ErrEWMAMilli, r.LinkHops}
}

// readRecord reads slot's health line fresh from home through n.
func (l *Layer) readRecord(n *fabric.Node, slot int) (Record, error) {
	pl, err := sampleLine.Read(n, l.recSlotG(slot))
	return checkRecord(pl, err, slot)
}

// checkRecord validates a health line read from the arena for slot
// wantSlot. A failed check means the observation carries no information
// — never that the node is healthy or degraded.
func checkRecord(l ds.PubLine, err error, wantSlot int) (Record, error) {
	if err != nil {
		return Record{}, err
	}
	p := l.Payload
	r := Record{
		Node:         uint8(p[0] >> 8),
		Slot:         uint8(p[0]),
		Generation:   p[1],
		LatEWMANS:    p[2],
		ErrEWMAMilli: p[3],
		LinkHops:     p[4],
	}
	switch {
	case int(r.Slot) != wantSlot:
		return Record{}, ErrBadSlot
	case r.Generation == 0 || r.Generation > 1<<32:
		return Record{}, ErrBadGen
	}
	return r, nil
}
