package torture

import (
	"fmt"
	"sync/atomic"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/sched"
)

// Ledger is the exactly-once completion checker under every harness that
// runs scheduler tasks across crashes, drains and lease reclaims: it
// hands each task its own DoneCell at Submit, and Audit later proves the
// scheduler incremented every cell exactly once, ran every body at least
// once, and lost or stranded nothing — even when a reclaim re-dispatched
// a task whose first runner died mid-flight (the attempt bump must fence
// the stale runner's completion CAS).
type Ledger struct {
	s     *sched.Scheduler
	fn    sched.FuncID
	done  fabric.GPtr // per task: the scheduler's DoneCell
	exec  fabric.GPtr // per task: how many times the body began
	cells uint64
	next  atomic.Uint64
}

// NewLedger reserves cells tasks' worth of audit state and registers
// body as the task function; body receives the submitter's arg0. The
// task's last act is a fabric read, so a runner whose node crashed while
// body lingered off-fabric dies with its node instead of completing.
// Submit from a node that never crashes, so the submission history
// itself is reliable ground truth.
func NewLedger(f *fabric.Fabric, s *sched.Scheduler, cells int, body func(n *fabric.Node, arg0 uint64)) *Ledger {
	l := &Ledger{s: s, cells: uint64(cells)}
	l.done = f.Reserve(l.cells*8, fabric.LineSize)
	l.exec = f.Reserve(l.cells*8, fabric.LineSize)
	l.fn = s.Register(func(n *fabric.Node, arg0, idx uint64) {
		n.Add64(l.exec.Add(idx*8), 1)
		body(n, arg0)
		n.Load64(l.done.Add(idx * 8))
	})
	return l
}

// Submit queues one audited task from node from.
func (l *Ledger) Submit(from *fabric.Node, arg0 uint64, preferred int) sched.Handle {
	idx := l.next.Add(1) - 1
	if idx >= l.cells {
		panic("torture: ledger overran its DoneCell arena")
	}
	return l.s.Submit(from, sched.Task{
		Fn:        l.fn,
		Arg0:      arg0,
		Arg1:      idx,
		Preferred: preferred,
		DoneCell:  l.done.Add(idx * 8),
	})
}

// LedgerAudit is one Audit's outcome.
type LedgerAudit struct {
	Tasks      uint64 // submitted through the ledger
	Once       uint64 // of those, DoneCell == 1
	Stats      sched.Stats
	Violations []string
}

// OK reports whether every invariant held.
func (a LedgerAudit) OK() bool { return len(a.Violations) == 0 }

func (a LedgerAudit) String() string {
	return fmt.Sprintf("%d / %d (submitted %d, completed %d, queued %d)",
		a.Once, a.Tasks, a.Stats.Submitted, a.Stats.Completed, a.Stats.Queued)
}

// Audit reads the scheduler's ledger through node from and checks the
// whole task history.
func (l *Ledger) Audit(from *fabric.Node) LedgerAudit {
	a := LedgerAudit{Tasks: l.next.Load()}
	violatef := func(format string, args ...any) {
		a.Violations = append(a.Violations, fmt.Sprintf(format, args...))
	}
	// Callers audit after waiting on their handles, so the scheduler's
	// ledger only has to settle. The wait is bounded: a completion the
	// scheduler lost (a runner dying between freeing its slot and counting
	// it) must surface as a violation, not hang the harness.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		a.Stats = l.s.StatsFrom(from)
		if a.Stats.Completed >= a.Stats.Submitted || time.Now().After(deadline) {
			break
		}
	}
	if a.Stats.Submitted != a.Tasks || a.Stats.Completed != a.Tasks {
		violatef("lost tasks: submitted=%d completed=%d want %d", a.Stats.Submitted, a.Stats.Completed, a.Tasks)
	}
	if a.Stats.Queued != 0 {
		violatef("stranded tasks: queued=%d after drain", a.Stats.Queued)
	}
	for idx := uint64(0); idx < a.Tasks; idx++ {
		if done := from.AtomicLoad64(l.done.Add(idx * 8)); done != 1 {
			violatef("task %d: DoneCell=%d, want exactly 1", idx, done)
		} else {
			a.Once++
		}
		if from.AtomicLoad64(l.exec.Add(idx*8)) == 0 {
			violatef("task %d: never executed", idx)
		}
	}
	return a
}
