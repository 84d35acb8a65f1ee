// Package replication implements FlacDK's replication-based synchronization
// (paper §3.2): a shared operation log in global memory plus one local
// replica of the data structure per node, in the style of NrOS/node
// replication.
//
// The common path touches only node-local memory: reads run against the
// local replica, and updates append one log entry then replay the log into
// the local replica. Cross-node agreement needs no locks on shared data and
// no cache coherence — the log is published with fabric atomics (which
// bypass the caches) for control words, and explicit write-back/invalidate
// for payload lines.
//
// Log entry layout (two cache lines per entry):
//
//	line 0 (control, fabric atomics only):
//	    word 0: state     — idx+1 once the entry at log index idx is ready
//	    word 1: op|len    — opcode (high 32 bits) and payload length (low 32)
//	line 1 (payload, plain access + cache maintenance):
//	    up to 64 bytes of operation payload
//
// The state word's value is unique per log index, so a slot can be reused
// when the log wraps without an ABA hazard: consumers of index i wait for
// state == i+1 and can never confuse it with the previous occupant's i+1-cap.
package replication

import (
	"fmt"
	"sync"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
)

// PayloadMax is the largest operation payload an entry can carry. Larger
// arguments live in shared memory and the payload carries a GPtr to them.
const PayloadMax = fabric.LineSize

const entrySize = 2 * fabric.LineSize

// StateMachine is the replicated data structure. Apply must be
// deterministic: every replica applies the same operation sequence and must
// converge to the same state. The returned value is meaningful only to the
// node that issued the operation (e.g. "previous value" for a KV put).
type StateMachine interface {
	Apply(op uint32, payload []byte) uint64
}

// Log is the shared operation log. One Log is created in global memory and
// every node attaches a Replica to it.
type Log struct {
	capacity uint64
	tailG    fabric.GPtr   // atomic: next log index to allocate
	regG     fabric.GPtr   // atomic bitmap: which nodes have live replicas
	appliedG []fabric.GPtr // per node, atomic: entries applied so far
	entries  fabric.GPtr
}

// NewLog reserves global memory for a log of capEntries entries (rounded up
// to a power of two, minimum 8) shared by all nodes of f.
func NewLog(f *fabric.Fabric, capEntries uint64) *Log {
	capE := uint64(8)
	for capE < capEntries {
		capE <<= 1
	}
	if f.NumNodes() > 64 {
		panic("replication: at most 64 nodes (registration bitmap is one word)")
	}
	l := &Log{
		capacity: capE,
		tailG:    f.Reserve(fabric.LineSize, fabric.LineSize),
		regG:     f.Reserve(fabric.LineSize, fabric.LineSize),
		entries:  f.Reserve(capE*entrySize, fabric.LineSize),
	}
	l.appliedG = make([]fabric.GPtr, f.NumNodes())
	for i := range l.appliedG {
		l.appliedG[i] = f.Reserve(fabric.LineSize, fabric.LineSize)
	}
	return l
}

func (l *Log) stateG(idx uint64) fabric.GPtr {
	return l.entries.Add((idx % l.capacity) * entrySize)
}
func (l *Log) metaG(idx uint64) fabric.GPtr    { return l.stateG(idx).Add(8) }
func (l *Log) payloadG(idx uint64) fabric.GPtr { return l.stateG(idx).Add(fabric.LineSize) }

// Tail returns the log's current tail index as seen by node n.
func (l *Log) Tail(n *fabric.Node) uint64 { return n.AtomicLoad64(l.tailG) }

// minApplied returns the slowest registered replica's applied index. Nodes
// without a live replica do not gate log recycling. With no replicas at
// all, recycling is unconstrained.
func (l *Log) minApplied(n *fabric.Node) uint64 {
	reg := n.AtomicLoad64(l.regG)
	min := ^uint64(0)
	for i, g := range l.appliedG {
		if reg&(1<<uint(i)) == 0 {
			continue
		}
		if a := n.AtomicLoad64(g); a < min {
			min = a
		}
	}
	return min
}

// register marks node id as having a live replica.
func (l *Log) register(n *fabric.Node, id int) {
	for {
		old := n.AtomicLoad64(l.regG)
		if old&(1<<uint(id)) != 0 || n.CAS64(l.regG, old, old|1<<uint(id)) {
			return
		}
	}
}

// Deregister removes node id from the recycle constraint — fault handling
// calls it when a node dies so its stalled applied counter cannot wedge the
// rack's appenders. A later Replica for the node re-registers it.
func (l *Log) Deregister(n *fabric.Node, id int) {
	for {
		old := n.AtomicLoad64(l.regG)
		if old&(1<<uint(id)) == 0 || n.CAS64(l.regG, old, old&^(1<<uint(id))) {
			return
		}
	}
}

// Replica is one node's attachment to the log: a local copy of the state
// machine plus the replay cursor. The zero value is not usable; create
// replicas with Log.Replica.
type Replica struct {
	log  *Log
	node *fabric.Node

	mu           sync.Mutex // guards sm and localApplied (node-local, coherent)
	sm           StateMachine
	localApplied uint64
}

// Replica attaches a fresh replica for node n, seeded with sm (which must
// represent the state after zero operations, identically on every node).
func (l *Log) Replica(n *fabric.Node, sm StateMachine) *Replica {
	n.AtomicStore64(l.appliedG[n.ID()], 0)
	l.register(n, n.ID())
	return &Replica{log: l, node: n, sm: sm}
}

// Execute appends one operation to the shared log and replays the log until
// the operation has been applied locally, returning its Apply result. It is
// linearizable across the rack.
func (r *Replica) Execute(op uint32, payload []byte) uint64 {
	if len(payload) > PayloadMax {
		panic(fmt.Sprintf("replication: payload %d exceeds max %d", len(payload), PayloadMax))
	}
	l, n := r.log, r.node
	idx := n.Add64(l.tailG, 1) - 1

	// Wait for the slot to be recycled: every replica must have applied the
	// previous occupant. Help ourselves along by syncing while we wait so a
	// self-lag never deadlocks the append.
	n.Await(fabric.Wait{Site: "replication.Execute", Arg: idx}, func() (uint64, bool) {
		m := l.minApplied(n)
		if idx < m+l.capacity {
			return m, true
		}
		r.Sync()
		return m, false
	})

	ds.PublishRange(n, l.payloadG(idx), payload)
	n.AtomicStore64(l.metaG(idx), uint64(op)<<32|uint64(len(payload)))
	n.AtomicStore64(l.stateG(idx), idx+1) // publish

	// Replay until our own entry is applied; capture its local result.
	return r.syncUntil(idx + 1)
}

// Sync replays published log entries into the local replica, stopping at
// the first entry that has been reserved but not yet published (so it never
// blocks on a stalled appender — including this node's own pending append).
// Nodes that only read must still call Sync so the log can recycle.
func (r *Replica) Sync() {
	l, n := r.log, r.node
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		idx := r.localApplied
		if n.AtomicLoad64(l.stateG(idx)) != idx+1 {
			return
		}
		r.applyLocked(idx)
	}
}

// syncUntil applies entries until localApplied >= target, returning the
// Apply result of entry target-1 (the caller's own op for Execute). Unlike
// Sync it waits for unpublished-but-reserved entries, which is required for
// linearizability.
func (r *Replica) syncUntil(target uint64) uint64 {
	l, n := r.log, r.node
	var result uint64
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.localApplied < target {
		idx := r.localApplied
		// The entry at idx was reserved by some appender; wait for publish.
		st := l.stateG(idx)
		n.Await(fabric.Wait{Site: "replication.syncUntil", Word: st, Arg: idx}, func() (uint64, bool) {
			v := n.AtomicLoad64(st)
			return v, v == idx+1
		})
		res := r.applyLocked(idx)
		if idx == target-1 {
			result = res
		}
	}
	return result
}

// applyLocked applies the published entry at idx to the local replica and
// advances the applied cursor. Caller holds r.mu and has verified that the
// entry's state word equals idx+1.
func (r *Replica) applyLocked(idx uint64) uint64 {
	l, n := r.log, r.node
	meta := n.AtomicLoad64(l.metaG(idx))
	op := uint32(meta >> 32)
	plen := uint64(uint32(meta))
	var payload []byte
	if plen > 0 {
		payload = make([]byte, plen)
		ds.ReadRange(n, l.payloadG(idx), payload)
	}
	res := r.sm.Apply(op, payload)
	r.localApplied = idx + 1
	n.AtomicStore64(l.appliedG[n.ID()], r.localApplied)
	return res
}

// ReadLinearizable observes the log tail, replays up to it, then runs fn on
// the local replica. The read reflects every operation that completed
// before ReadLinearizable was called.
func (r *Replica) ReadLinearizable(fn func(StateMachine)) {
	t := r.log.Tail(r.node)
	r.syncUntil(t)
	r.mu.Lock()
	fn(r.sm)
	r.mu.Unlock()
}

// ReadLocal runs fn on the local replica without consulting the shared log:
// the fastest read, possibly stale. This is the paper's common path — all
// node-local memory, zero fabric traffic.
func (r *Replica) ReadLocal(fn func(StateMachine)) {
	r.mu.Lock()
	fn(r.sm)
	r.mu.Unlock()
}
