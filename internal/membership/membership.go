// Package membership is the rack's coordinated failure-detection and
// self-healing layer: an arena-resident membership table (one heartbeat
// line and one control line per node slot), a phi-accrual-style
// suspicion detector every member runs over the other slots, and a
// rack-wide event stream (Join/Suspect/Alive/Dead) that the other
// subsystems subscribe to so ONE detection drives recovery everywhere
// — sched reclaims a dead node's leases, the redis RackStore fences its
// views, serverless re-places its containers — instead of each
// subsystem rediscovering node death independently.
//
// The layer also implements node hot-plug: a fresh (or restarted) node
// CASes into a slot with a bumped generation number, resyncs against
// the shared structures, and starts serving while the rack is under
// load. Generation numbers fence zombies — a node declared Dead that
// keeps writing does so under a stale generation every consumer can
// reject deterministically; incarnation numbers let a falsely suspected
// node refute the suspicion (SWIM-style) without a generation bump.
package membership

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
	"flacos/internal/trace"
)

// State is a slot's lifecycle state, stored in the control word.
type State uint8

// Slot states. All transitions are CAS64s on the control word.
const (
	StateFree State = iota
	StateJoining
	StateAlive
	StateSuspect
	StateDead
)

func (s State) String() string {
	switch s {
	case StateFree:
		return "free"
	case StateJoining:
		return "joining"
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// HeartbeatTick is how often each member republishes its record and runs
// its detector pass, and with it every step attached by OnTick (the
// health layer's sample-and-observe pass), sized for the simulated rack's
// microsecond-scale ticks.
const HeartbeatTick = 100 * time.Microsecond

// Detector constants no caller tunes: the phi at which an observer moves
// a slot Alive -> Suspect (roughly 7x the mean beat interval without an
// arrival), the per-slot window of inter-beat intervals the phi estimate
// is computed over, and how far beyond the rack's max virtual clock a
// record timestamp may point before the detector rejects it as corrupt.
const (
	phiSuspect   = 3
	phiWindow    = 16
	clockSlackNS = uint64(time.Millisecond)
)

// Config tunes the membership layer's verdict of Dead. Zero values get
// the defaults.
type Config struct {
	// PhiDead is the phi threshold required (together with DeadStrikes)
	// to move Suspect -> Dead (default 8).
	PhiDead float64
	// DeadStrikes is how many consecutive detector ticks the beat must
	// stay frozen ABOVE PhiDead before the slot is declared Dead. The
	// strike counter only advances when the observer's own tick ran, so
	// a stalled observer cannot rush a verdict (same self-normalization
	// as sched's lease keeper).
	DeadStrikes int
}

func (c *Config) fillDefaults() {
	if c.PhiDead == 0 {
		c.PhiDead = 8
	}
	if c.DeadStrikes == 0 {
		c.DeadStrikes = 3
	}
}

// ctlWord is a slot's control word, the slow-path authority on its
// identity and state: aux is the occupant's incarnation, owner its node.
type ctlWord = ds.StateWord[State]

// Table is the rack's membership table: the arena-resident slots plus
// the host-side liveness mirror the hot paths consult.
type Table struct {
	fab   *fabric.Fabric
	cfg   Config
	slots int // capacity: the fabric's nodes, plus two free for hot-plugging into a new slot

	hbG fabric.GPtr          // heartbeat records, one line per slot (cached writes)
	ctl ds.StateTable[State] // control words, one line per slot (fabric atomics only)

	// alive mirrors each NODE's serving state as the local agents last
	// observed it (Alive or Suspect = true). It is the zero-fabric-cost
	// oracle sched's placement hot path consults; authoritative state is
	// always the control word.
	alive []atomic.Bool
}

// New lays the membership table out in f's global memory. Every slot
// starts Free; nodes join explicitly (core joins the boot population,
// hot-plugged nodes join at runtime).
func New(f *fabric.Fabric, cfg Config) *Table {
	cfg.fillDefaults()
	slots := f.NumNodes() + 2
	if slots > 255 {
		panic("membership: at most 255 slots (slot is a packed byte)")
	}
	return &Table{
		fab:   f,
		cfg:   cfg,
		slots: slots,
		hbG:   f.Reserve(uint64(slots)*recordBytes, fabric.LineSize),
		ctl:   ds.NewStateTable[State](f, slots),
		alive: make([]atomic.Bool, f.NumNodes()),
	}
}

// Slots returns the table capacity.
func (t *Table) Slots() int { return t.slots }

// Fabric returns the fabric the table lives on.
func (t *Table) Fabric() *fabric.Fabric { return t.fab }

func (t *Table) hbSlotG(slot int) fabric.GPtr { return t.hbG.Add(uint64(slot) * recordBytes) }

// Alive reports whether node id is currently serving (Alive or Suspect
// in some slot) as last observed by this host's agents. It is the
// liveness oracle sched.SetLiveness consumes: a pure host-side read,
// safe on any hot path. Nodes that never joined report false.
func (t *Table) Alive(id int) bool {
	if id < 0 || id >= len(t.alive) {
		return false
	}
	return t.alive[id].Load()
}

// SlotInfo is one slot's decoded control state (debug and tests).
type SlotInfo struct {
	State      State
	Node       int
	Generation uint64
}

// Snapshot reads every slot's control word through node n; slot i's is
// out[i].
func (t *Table) Snapshot(n *fabric.Node) []SlotInfo {
	out := make([]SlotInfo, t.slots)
	for i := range out {
		w := t.ctl.Load(n, i)
		out[i] = SlotInfo{
			State:      w.State(),
			Node:       w.Owner(),
			Generation: w.Gen(),
		}
	}
	return out
}

// Join claims a slot for node n and returns the joined Member in the
// Joining state: the caller resyncs (scheduler board, redis index,
// trace registration, whatever its role needs) and then Activates. Slot
// preference order: the slot this node previously occupied (restart
// rejoin, generation bumped), then a Free slot, then a Dead slot of
// some other node (slot recycling under a bumped generation).
func (t *Table) Join(n *fabric.Node) (*Member, error) {
	// Rejoin first: a restarted node must reclaim its old identity slot
	// so every observer sees one (node, slot) history with a bumped
	// generation rather than the same node in two slots.
	for slot := 0; slot < t.slots; slot++ {
		if w := t.ctl.Load(n, slot); w.State() != StateFree && w.Owner() == n.ID() {
			return t.joinSlot(n, slot)
		}
	}
	for slot := 0; slot < t.slots; slot++ {
		if t.ctl.Load(n, slot).State() == StateFree {
			if m, err := t.joinSlot(n, slot); err == nil {
				return m, nil
			}
		}
	}
	for slot := 0; slot < t.slots; slot++ {
		if st := t.ctl.Load(n, slot).State(); st == StateDead {
			if m, err := t.joinSlot(n, slot); err == nil {
				return m, nil
			}
		}
	}
	return nil, fmt.Errorf("membership: no joinable slot among %d for node %d", t.slots, n.ID())
}

func (t *Table) joinSlot(n *fabric.Node, slot int) (*Member, error) {
	for {
		w := t.ctl.Load(n, slot)
		st := w.State()
		rejoin := st != StateFree && w.Owner() == n.ID()
		if !rejoin && st != StateFree && st != StateDead {
			return nil, fmt.Errorf("membership: slot %d is %s (node %d gen %d), not joinable by node %d",
				slot, st, w.Owner(), w.Gen(), n.ID())
		}
		gen := w.Gen() + 1
		if !t.ctl.Transition(n, slot, w, ds.PackState(gen, 0, n.ID(), StateJoining)) {
			continue // raced with another joiner or a detector; re-read
		}
		m := &Member{
			t:    t,
			n:    n,
			slot: slot,
			gen:  gen,
			inc:  0,
			stop: make(chan struct{}),
		}
		m.lastCtl = make([]ctlWord, t.slots)
		// Publish the first heartbeat immediately so detectors have a
		// baseline for the new generation before the agent's first tick.
		m.publishBeat()
		return m, nil
	}
}

// Member is one node's live participation in the table: its heartbeat
// publisher, its agent loop (the detector over the other slots plus the
// steps companion layers attach), and its local subscriber list for the
// rack-wide event stream.
type Member struct {
	t    *Table
	n    *fabric.Node
	slot int
	gen  uint64
	inc  uint64 // local incarnation (bumped on refute)
	beat uint64

	trw atomic.Pointer[trace.Writer]

	subMu sync.Mutex
	subs  []func(Event)
	steps []func() // OnTick steps, append-only

	// Detector state, all node-local host memory: it costs nothing and
	// legitimately dies with the node.
	lastCtl []ctlWord
	obs     map[int]*slotObs

	stop     chan struct{}
	stopOnce sync.Once
	started  atomic.Bool
	wg       sync.WaitGroup
}

// Node returns the fabric node this member runs on.
func (m *Member) Node() *fabric.Node { return m.n }

// Slot returns the member's table slot.
func (m *Member) Slot() int { return m.slot }

// Generation returns the generation this member joined under — the
// fencing token consumers compare zombie writes against.
func (m *Member) Generation() uint64 { return m.gen }

// SetTrace attaches a flight-recorder writer; membership transitions
// this member performs or observes then land in the rack timeline.
// Safe while the member is running (core's EnableTrace may come late).
func (m *Member) SetTrace(w *trace.Writer) { m.trw.Store(w) }

// Trace returns the member's flight-recorder writer (nil untraced): the
// steps on its agent loop emit through it.
func (m *Member) Trace() *trace.Writer { return m.trw.Load() }

// Subscribe registers fn on this member's event stream. fn runs on the
// member's agent goroutine, the only goroutine that delivers this
// member's events, so one member's feed is ordered; EVERY member's agent
// observes and delivers the same rack-wide transitions, so cross-member
// consumers must be idempotent (or dedup on (Slot, Generation), as
// health.Controller's death sweep does).
func (m *Member) Subscribe(fn func(Event)) {
	m.subMu.Lock()
	m.subs = append(m.subs, fn)
	m.subMu.Unlock()
}

// OnTick attaches step to the member's agent loop: every tick, after the
// detector pass, the steps run in registration order on the agent
// goroutine. They stop with Stop and die with the node, like the
// detector, and events they Publish join the member's one ordered feed.
func (m *Member) OnTick(step func()) {
	m.subMu.Lock()
	m.steps = append(m.steps, step)
	m.subMu.Unlock()
}

// Activate transitions the member Joining -> Alive after its resync is
// complete; the node is serving from this moment.
func (m *Member) Activate() error {
	want := ds.PackState(m.gen, 0, m.n.ID(), StateJoining)
	if !m.t.ctl.Transition(m.n, m.slot, want, ds.PackState(m.gen, 0, m.n.ID(), StateAlive)) {
		w := m.t.ctl.Load(m.n, m.slot)
		return fmt.Errorf("membership: activate lost slot %d: now %s node %d gen %d (joined gen %d)",
			m.slot, w.State(), w.Owner(), w.Gen(), m.gen)
	}
	m.t.alive[m.n.ID()].Store(true)
	if tw := m.Trace(); tw != nil {
		tw.Emit(trace.SubMembership, trace.KJoin, 0, uint64(m.slot), m.gen)
	}
	return nil
}

// Start boots the member's heartbeat publisher and agent loop.
// Idempotent. Both goroutines absorb the fabric panic of their own
// node's crash — the heartbeat freezes exactly at the crash, which is
// precisely the signal the other detectors key on.
func (m *Member) Start() {
	if !m.started.CompareAndSwap(false, true) {
		return
	}
	m.wg.Add(2)
	go m.heartbeatLoop()
	go m.agentLoop()
}

// Stop halts the member's goroutines: the slot keeps its state (a
// crash-like disappearance as far as observers care). Idempotent; safe on
// members whose node already crashed.
func (m *Member) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// publishBeat republishes the member's heartbeat line under the next beat.
func (m *Member) publishBeat() {
	beat := atomic.AddUint64(&m.beat, 1)
	r := Record{
		Node:        uint8(m.n.ID()),
		Slot:        uint8(m.slot),
		Generation:  m.gen,
		Incarnation: atomic.LoadUint64(&m.inc),
		TS:          m.n.VirtualNS(),
	}
	heartbeatLine.Publish(m.n, m.t.hbSlotG(m.slot), beat, r.payload())
}

// heartbeatLoop republishes the record every tick until Stop or crash.
// It is the one loop kept apart from the agent loop: subscribers run
// inline there, and on the controller's node that includes a whole
// drain, fence or rejoin. A beat that waited on that work could get a
// live node declared dead (at PhiDead 6 with 100µs ticks, in about
// 1.4ms) — sched's lease keeper beats apart from its workers for the
// same reason.
func (m *Member) heartbeatLoop() {
	defer m.wg.Done()
	defer m.n.AbsorbCrash() // the beat freezes exactly at the crash
	tick := time.NewTicker(HeartbeatTick)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
			m.publishBeat()
		}
	}
}
