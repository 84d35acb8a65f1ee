package sched

import (
	"fmt"
	"sync"
	"sync/atomic"

	"flacos/internal/fabric"
	"flacos/internal/trace"
)

// tracing holds the scheduler's flight-recorder wiring: one writer
// pointer per node, swappable at runtime, plus the bounded lease-expiry
// log that post-mortems read.
type tracing struct {
	trw []atomic.Pointer[trace.Writer]

	reclaimMu  sync.Mutex
	reclaimLog []string
}

const reclaimLogCap = 64

// SetTrace attaches the scheduler's hot paths (dispatch, steal,
// lease-expiry, completion) to r's per-node writers. Nil detaches (and
// a nil recorder is ignored, so torture workloads can pass their env's
// recorder through unconditionally). Safe to call while running.
func (s *Scheduler) SetTrace(r *trace.Recorder) {
	for i := range s.tr.trw {
		s.tr.trw[i].Store(r.Writer(i))
	}
}

// tw returns node id's trace writer, nil when tracing is off.
func (s *Scheduler) tw(id int) *trace.Writer { return s.tr.trw[id].Load() }

// noteReclaim records one lease expiry in the bounded human-readable
// log, stamped with the keeper's virtual clock via the shared trace.VNS
// formatter (the same one torture's event log uses).
func (s *Scheduler) noteReclaim(n *fabric.Node, keeper int, slot uint64, owner int, attempt uint64) {
	entry := fmt.Sprintf("vt=%-9s keeper=n%d slot=%d owner=n%d attempt=%d",
		trace.VNS(n.VirtualNS()), keeper, slot, owner, attempt)
	s.tr.reclaimMu.Lock()
	if len(s.tr.reclaimLog) >= reclaimLogCap {
		copy(s.tr.reclaimLog, s.tr.reclaimLog[1:])
		s.tr.reclaimLog = s.tr.reclaimLog[:reclaimLogCap-1]
	}
	s.tr.reclaimLog = append(s.tr.reclaimLog, entry)
	s.tr.reclaimMu.Unlock()
}
