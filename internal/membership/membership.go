// Package membership is the rack's coordinated failure-detection and
// self-healing layer: an arena-resident membership table (one heartbeat
// line and one control line per node slot), a phi-accrual-style
// suspicion detector every member runs over the other slots, and a
// rack-wide event stream (Join/Suspect/Alive/Dead/Left) that the other
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
	StateLeft
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
	case StateLeft:
		return "left"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// The control word packs gen(32) | incarnation(16) | node(8) | state(8).
// It is the slow-path authority on a slot's identity and state; every
// transition is a CAS, so exactly one contender wins each transition
// rack-wide no matter how many detectors fire concurrently.
func packCtl(gen, inc uint64, node int, st State) uint64 {
	return gen<<32 | (inc&0xffff)<<16 | uint64(node&0xff)<<8 | uint64(st)
}

func ctlGen(w uint64) uint64  { return w >> 32 }
func ctlInc(w uint64) uint64  { return (w >> 16) & 0xffff }
func ctlNode(w uint64) int    { return int((w >> 8) & 0xff) }
func ctlState(w uint64) State { return State(w & 0xff) }

// Control line layout: one cache line per slot, fabric atomics ONLY —
// it must never share a line with the plainly-written heartbeat record,
// or a heartbeat write-back would clobber home words a concurrent
// control CAS just committed. Words:
//
//	w0 ctl       gen|incarnation|node|state (all transitions via CAS64)
//	w1 stampVNS  rack virtual time of the last state transition
//
//flac:shared
//flac:published-by=CAS64
type CtlLine struct {
	Ctl      uint64
	StampVNS uint64
	_        [6]uint64
}

const (
	ctlLineBytes = fabric.LineSize
	offCtl       = 0
	offStamp     = 8
)

// Config tunes the membership layer. Zero values get defaults sized for
// the simulated rack's microsecond-scale ticks.
type Config struct {
	// Slots is the table capacity. Hot-plugging a node into a NEW slot
	// needs free headroom beyond the boot-time population (default
	// f.NumNodes() + 2, max 255).
	Slots int
	// HeartbeatTick is how often each member republishes its record.
	HeartbeatTick time.Duration
	// DetectTick is the detector's observation period (default
	// HeartbeatTick).
	DetectTick time.Duration
	// PhiSuspect is the phi threshold at which an observer moves a slot
	// Alive -> Suspect (default 3: roughly 7x the mean beat interval
	// without an arrival).
	PhiSuspect float64
	// PhiDead is the phi threshold required (together with DeadStrikes)
	// to move Suspect -> Dead (default 8).
	PhiDead float64
	// DeadStrikes is how many consecutive detector ticks the beat must
	// stay frozen ABOVE PhiDead before the slot is declared Dead. The
	// strike counter only advances when the observer's own tick ran, so
	// a stalled observer cannot rush a verdict (same self-normalization
	// as sched's lease keeper).
	DeadStrikes int
	// Window is the per-slot sliding window of inter-beat intervals the
	// phi estimate is computed over (default 16).
	Window int
	// ClockSlackNS is how far beyond the rack's max virtual clock a
	// record timestamp may point before the detector rejects it as
	// corrupt (default 1ms).
	ClockSlackNS uint64
}

func (c *Config) fillDefaults(f *fabric.Fabric) {
	if c.Slots == 0 {
		c.Slots = f.NumNodes() + 2
	}
	if c.Slots > 255 {
		panic("membership: at most 255 slots (slot is a packed byte)")
	}
	if c.HeartbeatTick == 0 {
		c.HeartbeatTick = 200 * time.Microsecond
	}
	if c.DetectTick == 0 {
		c.DetectTick = c.HeartbeatTick
	}
	if c.PhiSuspect == 0 {
		c.PhiSuspect = 3
	}
	if c.PhiDead == 0 {
		c.PhiDead = 8
	}
	if c.DeadStrikes == 0 {
		c.DeadStrikes = 3
	}
	if c.Window == 0 {
		c.Window = 16
	}
	if c.ClockSlackNS == 0 {
		c.ClockSlackNS = uint64(time.Millisecond.Nanoseconds())
	}
}

// Table is the rack's membership table: the arena-resident slots plus
// the host-side liveness mirror the hot paths consult.
type Table struct {
	fab *fabric.Fabric
	cfg Config

	hbG  fabric.GPtr // heartbeat records, one line per slot (cached writes)
	ctlG fabric.GPtr // control lines, one per slot (fabric atomics only)

	// alive mirrors each NODE's serving state as the local agents last
	// observed it (Alive or Suspect = true). It is the zero-fabric-cost
	// oracle sched's placement hot path consults; authoritative state is
	// always the control word.
	alive []atomic.Bool

	mu      sync.Mutex
	members map[int]*Member // by slot
}

// New lays the membership table out in f's global memory. Every slot
// starts Free; nodes join explicitly (core joins the boot population,
// hot-plugged nodes join at runtime).
func New(f *fabric.Fabric, cfg Config) *Table {
	cfg.fillDefaults(f)
	t := &Table{
		fab:     f,
		cfg:     cfg,
		hbG:     f.Reserve(uint64(cfg.Slots)*recordBytes, fabric.LineSize),
		ctlG:    f.Reserve(uint64(cfg.Slots)*ctlLineBytes, fabric.LineSize),
		alive:   make([]atomic.Bool, f.NumNodes()),
		members: make(map[int]*Member),
	}
	return t
}

// Slots returns the table capacity.
func (t *Table) Slots() int { return t.cfg.Slots }

// Fabric returns the fabric the table lives on.
func (t *Table) Fabric() *fabric.Fabric { return t.fab }

func (t *Table) hbSlotG(slot int) fabric.GPtr  { return t.hbG.Add(uint64(slot) * recordBytes) }
func (t *Table) ctlSlotG(slot int) fabric.GPtr { return t.ctlG.Add(uint64(slot)*ctlLineBytes + offCtl) }
func (t *Table) stampG(slot int) fabric.GPtr   { return t.ctlG.Add(uint64(slot)*ctlLineBytes + offStamp) }

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
	Slot        int
	State       State
	Node        int
	Generation  uint64
	Incarnation uint64
	StampVNS    uint64
}

// Snapshot reads every slot's control word through node n.
func (t *Table) Snapshot(n *fabric.Node) []SlotInfo {
	out := make([]SlotInfo, t.cfg.Slots)
	for i := range out {
		w := n.AtomicLoad64(t.ctlSlotG(i))
		out[i] = SlotInfo{
			Slot:        i,
			State:       ctlState(w),
			Node:        ctlNode(w),
			Generation:  ctlGen(w),
			Incarnation: ctlInc(w),
			StampVNS:    n.AtomicLoad64(t.stampG(i)),
		}
	}
	return out
}

// Join claims a slot for node n and returns the joined Member in the
// Joining state: the caller resyncs (scheduler board, redis index,
// trace registration, whatever its role needs) and then Activates. Slot
// preference order: the slot this node previously occupied (restart
// rejoin, generation bumped), then a Free slot, then a Dead or Left
// slot of some other node (slot recycling under a bumped generation).
func (t *Table) Join(n *fabric.Node) (*Member, error) {
	// Rejoin first: a restarted node must reclaim its old identity slot
	// so every observer sees one (node, slot) history with a bumped
	// generation rather than the same node in two slots.
	for slot := 0; slot < t.cfg.Slots; slot++ {
		w := n.AtomicLoad64(t.ctlSlotG(slot))
		if ctlState(w) != StateFree && ctlNode(w) == n.ID() {
			return t.joinSlot(n, slot)
		}
	}
	for slot := 0; slot < t.cfg.Slots; slot++ {
		w := n.AtomicLoad64(t.ctlSlotG(slot))
		if ctlState(w) == StateFree {
			if m, err := t.joinSlot(n, slot); err == nil {
				return m, nil
			}
		}
	}
	for slot := 0; slot < t.cfg.Slots; slot++ {
		w := n.AtomicLoad64(t.ctlSlotG(slot))
		if st := ctlState(w); st == StateDead || st == StateLeft {
			if m, err := t.joinSlot(n, slot); err == nil {
				return m, nil
			}
		}
	}
	return nil, fmt.Errorf("membership: no joinable slot among %d for node %d", t.cfg.Slots, n.ID())
}

// JoinSlot claims an explicit slot (deterministic boot layout: core
// joins node i into slot i). The slot must be Free, previously owned by
// this node, or Dead/Left.
func (t *Table) JoinSlot(n *fabric.Node, slot int) (*Member, error) {
	if slot < 0 || slot >= t.cfg.Slots {
		return nil, fmt.Errorf("membership: slot %d out of range [0,%d)", slot, t.cfg.Slots)
	}
	return t.joinSlot(n, slot)
}

func (t *Table) joinSlot(n *fabric.Node, slot int) (*Member, error) {
	for {
		w := n.AtomicLoad64(t.ctlSlotG(slot))
		st := ctlState(w)
		rejoin := st != StateFree && ctlNode(w) == n.ID()
		if !rejoin && st != StateFree && st != StateDead && st != StateLeft {
			return nil, fmt.Errorf("membership: slot %d is %s (node %d gen %d), not joinable by node %d",
				slot, st, ctlNode(w), ctlGen(w), n.ID())
		}
		gen := ctlGen(w) + 1
		next := packCtl(gen, 0, n.ID(), StateJoining)
		if !n.CAS64(t.ctlSlotG(slot), w, next) {
			continue // raced with another joiner or a detector; re-read
		}
		n.AtomicStore64(t.stampG(slot), n.VirtualNS())
		m := &Member{
			t:    t,
			n:    n,
			slot: slot,
			gen:  gen,
			inc:  0,
			stop: make(chan struct{}),
		}
		m.lastCtl = make([]uint64, t.cfg.Slots)
		t.mu.Lock()
		t.members[slot] = m
		t.mu.Unlock()
		// Publish the first heartbeat immediately so detectors have a
		// baseline for the new generation before the agent's first tick.
		m.publishBeat()
		return m, nil
	}
}

// Member is one node's live participation in the table: its heartbeat
// publisher, its detector agent over the other slots, and its local
// subscriber list for the rack-wide event stream.
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

	// Detector state, all node-local host memory: it costs nothing and
	// legitimately dies with the node.
	lastCtl []uint64
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

// Incarnation returns the member's current incarnation number.
func (m *Member) Incarnation() uint64 { return atomic.LoadUint64(&m.inc) }

// SetTrace attaches a flight-recorder writer; membership transitions
// this member performs or observes then land in the rack timeline.
// Safe while the member is running (core's EnableTrace may come late).
func (m *Member) SetTrace(w *trace.Writer) { m.trw.Store(w) }

func (m *Member) tw() *trace.Writer { return m.trw.Load() }

// Subscribe registers fn on this member's event stream. fn runs on the
// member's agent goroutine; EVERY member's agent observes and delivers
// the same rack-wide transitions, so cross-member consumers must be
// idempotent (or dedup on (Slot, Generation), as core does).
func (m *Member) Subscribe(fn func(Event)) {
	m.subMu.Lock()
	m.subs = append(m.subs, fn)
	m.subMu.Unlock()
}

// Activate transitions the member Joining -> Alive after its resync is
// complete; the node is serving from this moment.
func (m *Member) Activate() error {
	want := packCtl(m.gen, 0, m.n.ID(), StateJoining)
	next := packCtl(m.gen, 0, m.n.ID(), StateAlive)
	if !m.n.CAS64(m.t.ctlSlotG(m.slot), want, next) {
		w := m.n.AtomicLoad64(m.t.ctlSlotG(m.slot))
		return fmt.Errorf("membership: activate lost slot %d: now %s node %d gen %d (joined gen %d)",
			m.slot, ctlState(w), ctlNode(w), ctlGen(w), m.gen)
	}
	m.n.AtomicStore64(m.t.stampG(m.slot), m.n.VirtualNS())
	m.t.alive[m.n.ID()].Store(true)
	if tw := m.tw(); tw != nil {
		tw.Emit(trace.SubMembership, trace.KJoin, 0, uint64(m.slot), m.gen)
	}
	return nil
}

// Start boots the member's heartbeat publisher and detector agent.
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

// Stop halts the member's goroutines without a Leave: the slot keeps
// its state (a crash-like disappearance as far as observers care).
// Idempotent; safe on members whose node already crashed.
func (m *Member) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// Leave performs a clean departure: Alive -> Left (best effort), then
// stops the goroutines. Observers deliver EvLeft, not EvDead, so
// consumers can skip crash recovery.
func (m *Member) Leave() {
	want := packCtl(m.gen, atomic.LoadUint64(&m.inc), m.n.ID(), StateAlive)
	next := packCtl(m.gen, atomic.LoadUint64(&m.inc), m.n.ID(), StateLeft)
	if m.n.CAS64(m.t.ctlSlotG(m.slot), want, next) {
		m.n.AtomicStore64(m.t.stampG(m.slot), m.n.VirtualNS())
		m.t.alive[m.n.ID()].Store(false)
		if tw := m.tw(); tw != nil {
			tw.Emit(trace.SubMembership, trace.KLeft, 0, uint64(m.slot), m.gen)
		}
	}
	m.Stop()
}

// publishBeat composes the member's heartbeat record in its cache and
// pushes the whole line home with one write-back. The beat counter is
// the line's last word, so fabric's ascending commit order makes it the
// publication word — observers never see a new beat with old payload.
func (m *Member) publishBeat() {
	beat := atomic.AddUint64(&m.beat, 1)
	line := EncodeRecord(Record{
		Node:        uint8(m.n.ID()),
		Slot:        uint8(m.slot),
		Generation:  m.gen,
		Incarnation: atomic.LoadUint64(&m.inc),
		TS:          m.n.VirtualNS(),
		Beat:        beat,
	})
	g := m.t.hbSlotG(m.slot)
	m.n.Write(g, line[:])
	m.n.WriteBackRange(g, recordBytes)
}

// heartbeatLoop republishes the record every tick until Stop or crash.
func (m *Member) heartbeatLoop() {
	defer m.wg.Done()
	defer m.n.AbsorbCrash() // the beat freezes exactly at the crash
	tick := time.NewTicker(m.t.cfg.HeartbeatTick)
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
