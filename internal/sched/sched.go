package sched

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
	"flacos/internal/metrics"
	"flacos/internal/trace"
)

// Func is a schedulable function. It runs on whichever node claims the
// task; all task state it touches must be reachable through its
// arguments (typically GPtrs into global memory). Functions are
// registered identically on every node — the scheduler's equivalent of
// §3.5's shared code contexts.
type Func func(n *fabric.Node, arg0, arg1 uint64)

// FuncID names a registered function in the shared code-context table.
type FuncID uint64

// Task describes one crash-recoverable unit of work.
type Task struct {
	Fn   FuncID
	Arg0 uint64
	Arg1 uint64
	// Preferred is the locality hint: the node whose cache is warm with
	// the task's working set. Negative means "run anywhere".
	Preferred int
	// DoneCell, when non-nil, is a global-memory word the scheduler
	// increments once, right after the task's completion CAS; a runner
	// that dies between the two loses the increment.
	DoneCell fabric.GPtr
}

// Handle identifies a submitted task for Wait.
type Handle struct {
	Slot uint64
	Gen  uint64
}

// Policy selects the placement strategy consulted at submission.
type Policy int

// Placement policies.
const (
	// PolicyLocality honors Task.Preferred unless that node's load
	// exceeds the rack minimum by more than LocalitySlack.
	PolicyLocality Policy = iota
	// PolicyRandom places uniformly at random over live nodes (the
	// ablation baseline for the sched experiment).
	PolicyRandom
)

// inboxCap is each node's announcement ring size; no caller tunes it.
const inboxCap = 256

// Config sizes and tunes a Scheduler. Zero values get workable defaults.
type Config struct {
	// TableCap is the number of task slots in the global run queue.
	// Submit blocks (bounded-queue semantics) when all are in flight.
	TableCap uint64
	// WorkersPerNode is how many claiming goroutines each node runs.
	WorkersPerNode int
	// Policy is the placement strategy.
	Policy Policy
	// LocalitySlack is how much extra load the preferred node may carry
	// before PolicyLocality spills the task to the least-loaded node.
	LocalitySlack uint64
	// ProbeRounds is how many consecutive keeper ticks a Running task's
	// owner heartbeat must stay frozen before its lease expires.
	ProbeRounds int
	// ReclaimTick is the keeper's heartbeat/probe period.
	ReclaimTick time.Duration
	// IdleTick is how long an idle worker waits before re-scanning for
	// stealable work.
	IdleTick time.Duration
	// StealGrace is how long a queued task with a live preferred node
	// is left for that node before other nodes may steal it; it keeps
	// momentary idleness elsewhere from defeating locality. Tasks whose
	// preferred node is down (or unset) are stealable immediately.
	StealGrace time.Duration
	// HistCap bounds the scheduler's latency histograms by reservoir
	// sampling (0 keeps exact samples; long-running schedulers should
	// cap — see metrics.Histogram.SetReservoir).
	HistCap int
}

// seed seeds PolicyRandom and the histogram reservoirs.
const seed = 1

// DefaultConfig returns the configuration core.Rack boots with.
func DefaultConfig() Config { return Config{} }

func (c *Config) fillDefaults() {
	if c.TableCap == 0 {
		c.TableCap = 1024
	}
	if c.WorkersPerNode == 0 {
		c.WorkersPerNode = 4
	}
	if c.LocalitySlack == 0 {
		c.LocalitySlack = 8
	}
	if c.ProbeRounds == 0 {
		c.ProbeRounds = 4
	}
	if c.ReclaimTick == 0 {
		c.ReclaimTick = 200 * time.Microsecond
	}
	if c.IdleTick == 0 {
		c.IdleTick = 500 * time.Microsecond
	}
	if c.StealGrace == 0 {
		c.StealGrace = 200 * time.Microsecond
	}
	if c.HistCap == 0 {
		c.HistCap = 16384
	}
}

// Scheduler is the rack-wide coordinated task scheduler. One instance
// serves the whole rack; every node's OS boots workers into it.
type Scheduler struct {
	fab *fabric.Fabric
	cfg Config

	tableG  fabric.GPtr // task slots, one line each
	boardG  fabric.GPtr // per-node load + heartbeat lines
	queuedG fabric.GPtr // scan hint: at least the number of Queued slots
	inboxes []*ds.MPSCRing

	fnMu sync.RWMutex
	fns  []Func

	inboxMu []sync.Mutex // node-private consumer locks
	notify  []chan struct{}

	// liveness is the membership layer's oracle (nil = crash checks
	// only); notServing gates a joining node's pull paths (see
	// membership.go in this package).
	liveness   atomic.Pointer[func(int) bool]
	notServing []atomic.Bool

	allocCursor atomic.Uint64
	reclaimed   atomic.Uint64

	rngMu sync.Mutex
	rng   *rand.Rand

	dispatch   *metrics.Histogram // submit -> first claim
	redispatch *metrics.Histogram // lease reclaim -> re-claim

	// trw holds each node's flight-recorder writer, swappable at runtime
	// (trace.go). A lease expiry is its KLeaseExpiry event, which names
	// the slot and the old owner.
	trw []atomic.Pointer[trace.Writer]

	stop     chan struct{}
	stopOnce sync.Once
	started  atomic.Bool
	wg       sync.WaitGroup
}

// New lays the scheduler's shared structures out in f's global memory.
// Call Register for every function, then Start.
func New(f *fabric.Fabric, cfg Config) *Scheduler {
	cfg.fillDefaults()
	if f.NumNodes() > 254 {
		panic("sched: at most 254 nodes (owner is a packed byte)")
	}
	s := &Scheduler{
		fab:        f,
		cfg:        cfg,
		tableG:     f.Reserve(cfg.TableCap*slotBytes, fabric.LineSize),
		boardG:     f.Reserve(uint64(f.NumNodes())*boardBytes, fabric.LineSize),
		queuedG:    f.Reserve(fabric.LineSize, fabric.LineSize),
		rng:        rand.New(rand.NewSource(seed)),
		dispatch:   metrics.NewHistogram(),
		redispatch: metrics.NewHistogram(),
		stop:       make(chan struct{}),
	}
	if cfg.HistCap > 0 {
		s.dispatch.SetReservoir(cfg.HistCap, seed)
		s.redispatch.SetReservoir(cfg.HistCap, seed+1)
	}
	nn := f.NumNodes()
	s.notServing = make([]atomic.Bool, nn)
	s.trw = make([]atomic.Pointer[trace.Writer], nn)
	s.inboxes = make([]*ds.MPSCRing, nn)
	s.inboxMu = make([]sync.Mutex, nn)
	s.notify = make([]chan struct{}, nn)
	for i := 0; i < nn; i++ {
		s.inboxes[i] = ds.NewMPSCRing(f, f.Node(0), inboxCap, 8)
		s.notify[i] = make(chan struct{}, 1)
	}
	return s
}

// Register installs fn in the shared code-context table on every node
// and returns its id. Register before Start (ids must be stable before
// any worker can claim).
func (s *Scheduler) Register(fn Func) FuncID {
	s.fnMu.Lock()
	defer s.fnMu.Unlock()
	s.fns = append(s.fns, fn)
	return FuncID(len(s.fns) - 1)
}

func (s *Scheduler) fn(id uint64) Func {
	s.fnMu.RLock()
	defer s.fnMu.RUnlock()
	if id >= uint64(len(s.fns)) {
		panic(fmt.Sprintf("sched: unregistered function %d", id))
	}
	return s.fns[id]
}

// Start boots the per-node worker pools and keepers. Idempotent.
func (s *Scheduler) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	for id := 0; id < s.fab.NumNodes(); id++ {
		for w := 0; w < s.cfg.WorkersPerNode; w++ {
			s.wg.Add(1)
			go s.worker(id)
		}
		s.wg.Add(1)
		go s.keeper(id)
	}
}

// Stop shuts every worker and keeper down. In-flight tasks finish;
// queued tasks stay in the table (a future Start-like rebuild could
// resume them, as a real reboot would). Idempotent.
func (s *Scheduler) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// RebootNode spawns a fresh worker pool and keeper for node id after a
// fabric.Node Restart. The node rejoins the rack under its original ID.
// Its CPUs died in the crash, so every lease it still holds is void:
// RebootNode reclaims them first, because the new keeper resumes
// advancing the same heartbeat word and no keeper would ever see those
// leases expire. A pre-crash runner still asleep is fenced by the attempt
// bump, so a stale completion CAS cannot resurrect its task. Call only
// after the node has been restarted and only while the scheduler is
// running.
func (s *Scheduler) RebootNode(id int) {
	if !s.started.Load() || s.stopped() {
		return
	}
	s.ReclaimNode(s.fab.Node(id), id)
	for w := 0; w < s.cfg.WorkersPerNode; w++ {
		s.wg.Add(1)
		go s.worker(id)
	}
	s.wg.Add(1)
	go s.keeper(id)
	s.wake(id)
}

// wake nudges node id's workers (the software stand-in for an IPI /
// mwait wakeup on a global doorbell word).
func (s *Scheduler) wake(id int) {
	select {
	case s.notify[id] <- struct{}{}:
	default:
	}
}

// Submit places t on the global run queue from node `from` and returns
// a Handle for Wait. It blocks (bounded queue) while the table is full.
func (s *Scheduler) Submit(from *fabric.Node, t Task) Handle {
	pref := noPreference
	if t.Preferred >= 0 {
		if t.Preferred >= s.fab.NumNodes() {
			panic(fmt.Sprintf("sched: preferred node %d out of range", t.Preferred))
		}
		pref = t.Preferred
	}
	target := s.target(from, pref)
	slot, gen := s.allocSlot(from)
	from.AtomicStore64(s.fnG(slot), uint64(t.Fn))
	from.AtomicStore64(s.arg0G(slot), t.Arg0)
	from.AtomicStore64(s.arg1G(slot), t.Arg1)
	from.AtomicStore64(s.prefG(slot), uint64(pref))
	from.AtomicStore64(s.enqG(slot), nowNS())
	from.AtomicStore64(s.cellG(slot), uint64(t.DoneCell))
	// Hints count before publishing, so they never under-read a
	// claimable task.
	from.Add64(s.loadG(target), 1)
	from.Add64(s.queuedG, 1)
	from.AtomicStore64(s.stateG(slot), uint64(ds.PackState(gen, 0, target, stQueued)))
	s.announce(from, target, slot)
	return Handle{Slot: slot, Gen: gen}
}

// allocSlot claims a Free slot (Init state) and returns it with the new
// generation. Waits while the table is full.
func (s *Scheduler) allocSlot(from *fabric.Node) (slot, gen uint64) {
	from.Await(fabric.Wait{Site: "sched.allocSlot"}, func() (uint64, bool) {
		start := s.allocCursor.Add(1)
		for k := uint64(0); k < s.cfg.TableCap; k++ {
			i := (start + k) % s.cfg.TableCap
			w := slotWord(from.AtomicLoad64(s.stateG(i)))
			if w.State() != stFree {
				continue
			}
			slot, gen = i, w.Gen()+1
			if from.CAS64(s.stateG(i), uint64(w), uint64(ds.PackState(gen, 0, from.ID(), stInit))) {
				return 0, true
			}
		}
		return 0, false
	})
	return slot, gen
}

// announce posts slot to node target's inbox ring and rings its
// doorbell. Best effort: if the ring is full the task is still found by
// table scans, which is what correctness rests on.
func (s *Scheduler) announce(from *fabric.Node, target int, slot uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], slot)
	s.inboxes[target].TryPush(from, b[:])
	s.wake(target)
}

// target applies the placement policy over the load board.
func (s *Scheduler) target(from *fabric.Node, pref int) int {
	nn := s.fab.NumNodes()
	switch s.cfg.Policy {
	case PolicyRandom:
		s.rngMu.Lock()
		defer s.rngMu.Unlock()
		for tries := 0; tries < 4*nn; tries++ {
			if id := s.rng.Intn(nn); s.placeable(id) {
				return id
			}
		}
		return from.ID()
	}
	best, bestLoad := -1, ^uint64(0)
	var prefLoad uint64
	prefAlive := false
	for id := 0; id < nn; id++ {
		if !s.placeable(id) {
			continue
		}
		l := from.AtomicLoad64(s.loadG(id))
		if l < bestLoad {
			best, bestLoad = id, l
		}
		if id == pref {
			prefLoad, prefAlive = l, true
		}
	}
	if best < 0 {
		return from.ID() // every node down: caller is about to find out
	}
	if s.cfg.Policy == PolicyLocality && pref != noPreference && prefAlive &&
		prefLoad <= bestLoad+s.cfg.LocalitySlack {
		return pref
	}
	return best
}

// Wait blocks until h's task completes (its slot generation advances).
// It returns false if the scheduler stops first. Every 64th pause sleeps
// 20 us, so submitters waiting on a busy host leave the heartbeats room.
func (s *Scheduler) Wait(n *fabric.Node, h Handle) (done bool) {
	g := s.stateG(h.Slot)
	n.Await(fabric.Wait{Site: "sched.Wait", Word: g, Arg: h.Slot, Every: 64, Sleep: 20 * time.Microsecond}, func() (uint64, bool) {
		w := n.AtomicLoad64(g)
		done = slotWord(w).Gen() > h.Gen
		return w, done || s.stopped()
	})
	return done
}

func (s *Scheduler) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// Drain blocks until every submitted task has completed: every table slot
// is Free. Each poll resumes at the last busy slot it saw, so a poll while
// that task is in flight costs one load. It returns false if the scheduler
// stops first. Every 16th pause sleeps 50 us, as Wait's do.
func (s *Scheduler) Drain(n *fabric.Node) (done bool) {
	busy := uint64(0)
	n.Await(fabric.Wait{Site: "sched.Drain", Every: 16, Sleep: 50 * time.Microsecond}, func() (uint64, bool) {
		for k := uint64(0); k < s.cfg.TableCap; k++ {
			if slotWord(n.AtomicLoad64(s.stateG(busy))).State() != stFree {
				return busy, s.stopped()
			}
			busy = (busy + 1) % s.cfg.TableCap
		}
		done = true
		return busy, true
	})
	return done
}

// PickNode scores each live node as density[i] + scheduler load and
// returns the lowest. It is the placement hook serverless.Controller
// routes pickNode through (SetPlacer), so container placement and task
// placement share one load board.
func (s *Scheduler) PickNode(density []int) int {
	n := s.anyAlive()
	best, bestScore := -1, ^uint64(0)
	for id := 0; id < s.fab.NumNodes() && id < len(density); id++ {
		if !s.placeable(id) {
			continue
		}
		score := uint64(density[id])
		if n != nil {
			score += n.AtomicLoad64(s.loadG(id))
		}
		if score < bestScore {
			best, bestScore = id, score
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

func (s *Scheduler) anyAlive() *fabric.Node {
	for i := 0; i < s.fab.NumNodes(); i++ {
		if n := s.fab.Node(i); !n.Crashed() {
			return n
		}
	}
	return nil
}

// Stats is a snapshot of scheduler activity. Submitted, Completed and
// Queued are read from the task table's state words, so no crash can make
// them disagree with the slots; the rest are host-side counters.
type Stats struct {
	Submitted uint64 // global tasks that took a slot: Completed + busy slots
	Completed uint64 // global tasks whose completion CAS won (gen>>1 summed)
	Queued    uint64 // slots Queued (claimable) right now
	Reclaimed uint64 // lease expiries (crash re-dispatch)
}

// StatsFrom scans the task table through node n, one load per slot.
func (s *Scheduler) StatsFrom(n *fabric.Node) Stats {
	st := Stats{Reclaimed: s.reclaimed.Load()}
	for i := uint64(0); i < s.cfg.TableCap; i++ {
		w := slotWord(n.AtomicLoad64(s.stateG(i)))
		st.Completed += w.Gen() >> 1
		if w.State() != stFree {
			st.Submitted++
		}
		if w.State() == stQueued {
			st.Queued++
		}
	}
	st.Submitted += st.Completed
	return st
}

// DispatchHist is the submit->claim latency histogram (first attempts).
func (s *Scheduler) DispatchHist() *metrics.Histogram { return s.dispatch }

// RedispatchHist is the reclaim->re-claim latency histogram (tasks
// re-dispatched after their owner's lease expired).
func (s *Scheduler) RedispatchHist() *metrics.Histogram { return s.redispatch }
