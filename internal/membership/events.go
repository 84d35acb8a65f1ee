package membership

import "sync"

// EventKind classifies one membership transition.
type EventKind uint8

// Event kinds delivered on the rack-wide stream.
const (
	// EvJoin: a node finished joining (Joining -> Alive) — it has
	// resynced and is serving.
	EvJoin EventKind = iota
	// EvSuspect: a detector crossed the suspicion threshold.
	EvSuspect
	// EvAlive: a suspicion was lifted (refutation or a resumed beat).
	EvAlive
	// EvDead: the rack declared the slot's occupant dead. Consumers run
	// recovery (lease reclaim, view fencing, container eviction) keyed
	// on (Slot, Generation) for idempotence.
	EvDead
	// EvLeft: a clean departure; no crash recovery needed.
	EvLeft
	// EvDegraded: the health layer's anomaly detector concluded the
	// slot's occupant is degrading (gray failure) while still alive.
	// Raised by internal/health onto the same stream so consumers see
	// liveness and health transitions in one place; the self-healing
	// controller reacts by draining the node BEFORE it dies.
	EvDegraded
	// EvRecovered: the degraded node's signals returned to normal under
	// the same generation; the controller may rejoin it.
	EvRecovered
)

func (k EventKind) String() string {
	switch k {
	case EvJoin:
		return "join"
	case EvSuspect:
		return "suspect"
	case EvAlive:
		return "alive"
	case EvDead:
		return "dead"
	case EvLeft:
		return "left"
	case EvDegraded:
		return "degraded"
	case EvRecovered:
		return "recovered"
	}
	return "event(?)"
}

// Event is one membership transition as observed by a member's agent.
// Every live member's agent observes and delivers the same rack-wide
// transitions (the control table IS the log — there is no separate
// event ring to wedge or tear), so subscribers shared across members
// must be idempotent or dedup on (Slot, Generation).
type Event struct {
	Kind        EventKind
	Slot        int
	Node        int    // the slot's occupant at the transition
	Generation  uint64 // the occupant's generation (fencing token)
	Incarnation uint64
}

// DeadOnce is the dedup every cross-member Dead consumer needs: all live
// members' agents deliver the same death, and recovery must run once per
// (Slot, Generation). The zero value is ready to use.
type DeadOnce struct {
	mu   sync.Mutex
	seen map[[2]uint64]bool
}

// First reports whether ev is a Dead event for a (Slot, Generation) this
// DeadOnce has not been shown before, and remembers it.
func (d *DeadOnce) First(ev Event) bool {
	if ev.Kind != EvDead {
		return false
	}
	key := [2]uint64{uint64(ev.Slot), ev.Generation}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.seen[key] {
		return false
	}
	if d.seen == nil {
		d.seen = make(map[[2]uint64]bool)
	}
	d.seen[key] = true
	return true
}

// diffCtl synthesizes events by comparing slot's control word against
// what this agent last saw, updating the host-side liveness mirror on
// the way. A generation bump observed without an intervening Dead/Left
// means the node restarted faster than detection — the old incarnation
// still gets its EvDead (under the OLD generation) so recovery runs,
// followed by the new generation's own lifecycle events.
func (m *Member) diffCtl(slot int, w uint64) {
	prev := m.lastCtl[slot]
	if w == prev {
		return
	}
	m.lastCtl[slot] = w
	node, st, gen, inc := ctlNode(w), ctlState(w), ctlGen(w), ctlInc(w)
	pst := ctlState(prev)

	if prev != 0 && gen > ctlGen(prev) && (pst == StateAlive || pst == StateSuspect || pst == StateJoining) {
		// Restart-beats-detection: the slot was reclaimed under a new
		// generation while the old one was still nominally serving. The
		// old generation is gone exactly as if it had been declared Dead.
		m.deliver(Event{Kind: EvDead, Slot: slot, Node: ctlNode(prev), Generation: ctlGen(prev), Incarnation: ctlInc(prev)})
	}

	switch st {
	case StateJoining:
		// Not serving yet; EvJoin fires on Activate.
		m.t.setAliveMirror(node, false)
	case StateAlive:
		m.t.setAliveMirror(node, true)
		if pst == StateSuspect && gen == ctlGen(prev) {
			m.deliver(Event{Kind: EvAlive, Slot: slot, Node: node, Generation: gen, Incarnation: inc})
		} else {
			m.deliver(Event{Kind: EvJoin, Slot: slot, Node: node, Generation: gen, Incarnation: inc})
		}
	case StateSuspect:
		// Suspicion does NOT stop placement: a suspect is probably slow,
		// and a wrong verdict is fenced anyway.
		m.deliver(Event{Kind: EvSuspect, Slot: slot, Node: node, Generation: gen, Incarnation: inc})
	case StateDead:
		m.t.setAliveMirror(node, false)
		m.deliver(Event{Kind: EvDead, Slot: slot, Node: node, Generation: gen, Incarnation: inc})
	case StateLeft:
		m.t.setAliveMirror(node, false)
		m.deliver(Event{Kind: EvLeft, Slot: slot, Node: node, Generation: gen, Incarnation: inc})
	}
}

// setAliveMirror updates the host-side liveness oracle. Guarded against
// out-of-range nodes: control words can in principle carry garbage
// after corruption faults, and the mirror must never panic a hot path.
func (t *Table) setAliveMirror(node int, alive bool) {
	if node < 0 || node >= len(t.alive) {
		return
	}
	t.alive[node].Store(alive)
}

// Publish delivers ev to this member's subscribers as if the member's
// own agent had observed it. It is how companion layers extend the
// rack-wide stream with transitions the membership control table does
// not carry — internal/health raises EvDegraded/EvRecovered through it
// — so consumers subscribe once and see liveness AND health in one
// ordered feed. Same contract as agent-delivered events: when several
// members' companions publish the same rack-wide transition, consumers
// must dedup on (Slot, Generation).
func (m *Member) Publish(ev Event) { m.deliver(ev) }

func (m *Member) deliver(ev Event) {
	m.subMu.Lock()
	subs := make([]func(Event), len(m.subs))
	copy(subs, m.subs)
	m.subMu.Unlock()
	for _, fn := range subs {
		fn(ev)
	}
}
