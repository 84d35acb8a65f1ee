package trace

import (
	"fmt"

	"flacos/internal/flacdk/ds"
	"flacos/internal/metrics"
)

// Subsys identifies the subsystem that emitted an event.
type Subsys uint8

// Subsystem ids, one per instrumented layer.
const (
	SubFabric Subsys = iota
	SubSched
	SubFS
	SubMemsys
	SubServerless
	SubTorture
	SubApp
	SubRedis
	SubMembership
	SubHealth
	numSubsys
)

func (s Subsys) String() string {
	switch s {
	case SubFabric:
		return "fabric"
	case SubSched:
		return "sched"
	case SubFS:
		return "fs"
	case SubMemsys:
		return "memsys"
	case SubServerless:
		return "serverless"
	case SubTorture:
		return "torture"
	case SubApp:
		return "app"
	case SubRedis:
		return "redis"
	case SubMembership:
		return "membership"
	case SubHealth:
		return "health"
	}
	return fmt.Sprintf("sub(%d)", uint8(s))
}

// Kind is the event type within a subsystem.
type Kind uint8

// Event kinds. The recorder does not interpret them beyond naming; the
// operand words' meaning is per-kind and documented at the emit site.
const (
	KNone Kind = iota
	// fabric (firehose, opt-in): arg0 = global line index. A KMiss with
	// arg1 > 0 is one uncached ranged read (fabric.ReadFresh) of arg1
	// lines starting at arg0.
	KMiss
	KWriteBack
	KFence
	// sched: arg0 = task slot.
	KDispatch    // begin: a worker claimed the task; arg1 = attempt
	KSteal       // the claimer was not the assigned node; arg1 = assigned
	KLeaseExpiry // keeper reclaimed a dead runner's task; arg1 = old owner
	KComplete    // end: completion CAS landed; arg1 = attempt
	// fs: arg0 = file id or page key.
	KJournalCommit // a metadata op committed; arg1 = op code
	KEvict         // a page-cache frame was retired; arg1 = frame index
	// memsys: arg0 = virtual page number.
	KShootdown // TLB shootdown broadcast; arg1 = peers signaled
	KMigrate   // page relocated local -> global; arg1 = owner node
	KPromote   // tiering promotion; arg1 = dest node (^0 = warm tier)
	KDemote    // tiering demotion; arg1 = dest tier (0 warm, 1 cold)
	// serverless: arg0 = function-name hash.
	KInvoke // begin/end: one invocation; arg1 = payload bytes
	KPlace  // placement decision; arg1 = chosen node
	// torture: arg0 = schedule EventKind, arg1 = victim node / rate.
	KFault
	// app: free-form marks from tests and experiments.
	KMark
	// redis: arg0 = 64-bit key hash.
	KSet     // begin/end: one rack-store SET round trip; arg1 = value bytes
	KGet     // begin/end: one rack-store GET round trip; arg1 = value bytes (0 on miss)
	KCombine // begin/end: one combined hot-key batch at the owner; arg1 = fan-in
	// membership: arg0 = table slot.
	KJoin    // a member activated (Joining -> Alive); arg1 = generation
	KSuspect // a detector suspected the slot; arg1 = suspected node
	KRefute  // the occupant refuted a suspicion; arg1 = new incarnation
	KDead    // the rack declared the slot dead; arg1 = dead node
	KResync  // begin/end: a hot-plugged node's resync span; arg1 = node
	// redis (membership-driven): arg0 = fenced node.
	KViewFence // a dead node's views were fenced; arg1 = fence generation
	// health: arg0 = degraded/drained node.
	KDegraded   // an anomaly detector marked the node Degraded; arg1 = generation
	KRecovered  // the node's signals returned to normal; arg1 = generation
	KDrain      // begin/end: the self-healing drain pipeline; arg1 = generation (end: stage mask)
	KFenceEarly // the store was fenced BEFORE node death; arg1 = fenced generation
	KRejoin     // begin/end: recovery rejoin span; arg1 = generation
	// fabric (firehose, opt-in), ranged: one event per maintenance burst.
	// arg0 = first (lowest) line index written, arg1 = lines written.
	// Replaces what used to be arg1 per-line KWriteBack events, so the
	// firehose keeps full traffic fidelity at 1/Nth the emit cost.
	KWriteBackRange
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KNone:
		return "none"
	case KMiss:
		return "miss"
	case KWriteBack:
		return "write-back"
	case KFence:
		return "fence"
	case KDispatch:
		return "dispatch"
	case KSteal:
		return "steal"
	case KLeaseExpiry:
		return "lease-expiry"
	case KComplete:
		return "complete"
	case KJournalCommit:
		return "journal-commit"
	case KEvict:
		return "evict"
	case KShootdown:
		return "shootdown"
	case KMigrate:
		return "migrate"
	case KPromote:
		return "promote"
	case KDemote:
		return "demote"
	case KInvoke:
		return "invoke"
	case KPlace:
		return "place"
	case KFault:
		return "fault"
	case KMark:
		return "mark"
	case KSet:
		return "set"
	case KGet:
		return "get"
	case KCombine:
		return "combine"
	case KJoin:
		return "join"
	case KSuspect:
		return "suspect"
	case KRefute:
		return "refute"
	case KDead:
		return "dead"
	case KResync:
		return "resync"
	case KViewFence:
		return "view-fence"
	case KDegraded:
		return "degraded"
	case KRecovered:
		return "recovered"
	case KDrain:
		return "drain"
	case KFenceEarly:
		return "fence-early"
	case KRejoin:
		return "rejoin"
	case KWriteBackRange:
		return "write-back-range"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Flags mark span structure: a Begin/End pair on the same (node,
// subsystem, arg0) key brackets one span; an event with neither flag is
// an instant.
type Flags uint8

const (
	FlagBegin Flags = 1 << iota
	FlagEnd

	flagsMask = FlagBegin | FlagEnd
)

func (f Flags) String() string {
	switch f & flagsMask {
	case FlagBegin:
		return "begin"
	case FlagEnd:
		return "end"
	case FlagBegin | FlagEnd:
		return "begin|end"
	}
	return "-"
}

// Event is one decoded trace record.
type Event struct {
	TS    uint64 // virtual-ns timestamp on the emitting node's clock
	Seq   uint64 // per-node emission ticket: total order within the node
	Node  uint8  // emitting node id
	Sub   Subsys
	Kind  Kind
	Flags Flags
	Arg0  uint64
	Arg1  uint64
}

// Encode packs e (everything but Seq, which is its ring slot's commit
// sequence) into the payload words of a ds published line: word 0 the
// timestamp, word 1 the packed identity sub(8)|kind(8)|node(8)|flags(8)
// in the high bytes, words 2-3 the operands, the rest zero.
func Encode(e Event) [ds.PubWords]uint64 {
	meta := uint64(e.Sub)<<56 | uint64(e.Kind)<<48 | uint64(e.Node)<<40 | uint64(e.Flags)<<32
	return [ds.PubWords]uint64{e.TS, meta, e.Arg0, e.Arg1}
}

// Decode unpacks payload words written by Encode. Seq is left zero; the
// collector fills it from the slot's commit sequence.
func Decode(p [ds.PubWords]uint64) Event {
	return Event{
		TS:    p[0],
		Sub:   Subsys(p[1] >> 56),
		Kind:  Kind(p[1] >> 48),
		Node:  uint8(p[1] >> 40),
		Flags: Flags(p[1] >> 32),
		Arg0:  p[2],
		Arg1:  p[3],
	}
}

// Name returns the event's "subsystem/kind" label.
func (e Event) Name() string { return e.Sub.String() + "/" + e.Kind.String() }

// String renders one event for logs and timelines.
func (e Event) String() string {
	return fmt.Sprintf("n%d #%d vt=%s %-20s %-5s arg0=%#x arg1=%d",
		e.Node, e.Seq, VNS(e.TS), e.Name(), e.Flags, e.Arg0, e.Arg1)
}

// VNS formats a virtual-nanosecond quantity with an adaptive unit
// ("1.75us", "21.07ms"). It is the one shared formatter for virtual
// time: trace timelines and torture's event log both use it, so rack
// timelines read consistently across subsystems.
func VNS(ns uint64) string { return metrics.FormatNS(float64(ns)) }
