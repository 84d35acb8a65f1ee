// Package sched is FlacOS's rack-wide coordinated task scheduler: the
// layer that makes the memory-interconnected rack schedulable like one
// large multi-core machine. Its state is strategically split exactly as
// the paper prescribes for kernel structures:
//
//   - Hot, node-private state stays local: the consumer side of each
//     node's announcement inbox is guarded by a node-private mutex that
//     never crosses the fabric.
//
//   - Coordination state lives in global memory and is manipulated ONLY
//     with fabric atomics (no Go pointers cross nodes, no reliance on
//     cache coherence): a fixed-size task table whose slots carry a
//     packed state word (generation | attempt | owner | state),
//     function/argument words and instrumentation words; a per-node
//     load board (queued+running count, heartbeat); and one global
//     queued word.
//
// A slot's state word is the only record of its task: every lifecycle
// step is one write of it (layout.go lists them), and Stats, Drain and
// the lease keeper read task counts from the table. The load board and
// the queued word are hints. Each is incremented before the transition
// that creates the work it counts and decremented after the one that
// retires it, so a node that dies between the two leaves a hint that
// over-counts: that costs idle table scans or a placement skew, never a
// lost, stranded or miscounted task.
//
// Placement is locality-aware: a task may carry a preferred node (e.g.
// the node whose cache is warm with the task's memsys.Space pages), and
// the submitter consults the load board to honor the preference unless
// that node is overloaded. Announcement rides a per-node flacdk/ds
// MPSC ring, but rings are only a latency optimization — ownership is
// decided solely by a CAS on the task's state word, so idle nodes can
// steal any queued task by scanning the shared table (cross-node work
// stealing through the global queue).
//
// Failure handling is lease-based. A claim writes its node into the task's
// state word as the owner, and the lease is the owner's heartbeat word on
// the load board: the owner node's keeper goroutine renews all of its
// leases at once by bumping that word every tick. When the fault injector
// crashes a node, its heartbeat freezes; surviving keepers observe a
// Running task whose owner's beat has not advanced for ProbeRounds
// consecutive ticks, declare the lease expired, and re-queue the task
// (attempt+1) on themselves with one CAS. Completion is published with a
// generation-checked CAS, so even if a slow node is falsely declared dead
// and its task re-dispatched, exactly one completion is recorded and the
// completion cell (if any) is bumped at most once: the bump follows the
// CAS, so a runner that dies between the two loses it. Task bodies should
// therefore be idempotent or publish their effects through their own
// global-memory protocol: the scheduler guarantees at-least-once execution
// and exactly-once completion.
package sched
