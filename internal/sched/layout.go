package sched

import (
	"time"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
)

// slotState is a task slot's lifecycle state. The slot's state word is the
// only record of its task; every transition is one write of that word, a
// CAS except where Submit publishes the Init slot it alone holds:
//
//	Free(g)             -> Init(g+1, 0, submitter)   allocSlot
//	Init(g, 0, _)       -> Queued(g, 0, target)      Submit
//	Queued(g, a, o)     -> Running(g, a, claimer)    claimAndRun
//	Running(g, a, o)    -> Free(g+1)                 completion
//	Running(g, a, dead) -> Queued(g, a+1, reclaimer) reclaim
//
// The generation advances once at allocSlot and once at completion, so
// gen>>1 is how many tasks the slot has completed (see StatsFrom).
type slotState uint8

const (
	stFree slotState = iota
	stInit
	stQueued
	stRunning
)

// slotWord is a task slot's state word: aux is the attempt counter, owner
// the node the task is assigned to (Queued) or running on (Running). A
// Handle holds the odd generation allocSlot gave its task, so a larger
// generation tells waiters the task is done even after the slot is reused;
// the attempt counter advances on every lease reclaim so a stale runner's
// completion CAS can never succeed against a re-dispatched incarnation of
// the same task.
type slotWord = ds.StateWord[slotState]

// noPreference is the preferred-node byte meaning "run anywhere".
const noPreference = 0xff

// Slot layout: one cache line per task so fabric atomics on different
// tasks never share a line. Words:
//
//	w0 state      slotWord (all transitions via CAS)
//	w1 (unused)   a lease is the owner's heartbeat on the load board
//	w2 fn         registered function index
//	w3 arg0       first argument (often a GPtr to task state)
//	w4 arg1       second argument
//	w5 preferred  preferred node (noPreference: any), written at Submit
//	w6 enqueueNS  wall-clock ns at (re-)queue: dispatch latency, and the
//	              steal grace (scanAndRun) compares it (ROADMAP item 1)
//	w7 doneCell   optional GPtr FAA'd once, after the completion CAS
const (
	slotBytes = fabric.LineSize

	offState   = 0
	offFn      = 16
	offArg0    = 24
	offArg1    = 32
	offPref    = 40
	offEnqueue = 48
	offCell    = 56
)

// Load-board layout: one line per node. w0 is the node's load, a hint
// that over-counts the tasks queued for or running on it, w1 its
// heartbeat (lease renewal beat).
const (
	boardBytes = fabric.LineSize
	offLoad    = 0
	offBeat    = 8
)

func (s *Scheduler) slotG(i uint64) fabric.GPtr  { return s.tableG.Add(i * slotBytes) }
func (s *Scheduler) stateG(i uint64) fabric.GPtr { return s.slotG(i).Add(offState) }
func (s *Scheduler) fnG(i uint64) fabric.GPtr    { return s.slotG(i).Add(offFn) }
func (s *Scheduler) arg0G(i uint64) fabric.GPtr  { return s.slotG(i).Add(offArg0) }
func (s *Scheduler) arg1G(i uint64) fabric.GPtr  { return s.slotG(i).Add(offArg1) }
func (s *Scheduler) prefG(i uint64) fabric.GPtr  { return s.slotG(i).Add(offPref) }
func (s *Scheduler) enqG(i uint64) fabric.GPtr   { return s.slotG(i).Add(offEnqueue) }
func (s *Scheduler) cellG(i uint64) fabric.GPtr  { return s.slotG(i).Add(offCell) }

func (s *Scheduler) loadG(node int) fabric.GPtr {
	return s.boardG.Add(uint64(node)*boardBytes + offLoad)
}
func (s *Scheduler) beatG(node int) fabric.GPtr {
	return s.boardG.Add(uint64(node)*boardBytes + offBeat)
}

// nowNS is the wall clock stamped into a slot's enqueueNS. It times
// dispatch latency, and it decides: scanAndRun's steal grace compares it,
// so whether a node steals a task depends on host time (ROADMAP item 1).
func nowNS() uint64 { return uint64(time.Now().UnixNano()) }

func latencyNS(from, to uint64) float64 {
	if to <= from {
		return 0
	}
	return float64(to - from)
}
