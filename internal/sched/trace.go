package sched

import "flacos/internal/trace"

// SetTrace attaches the scheduler's hot paths (dispatch, steal,
// lease-expiry, completion) to r's per-node writers. Nil detaches (and
// a nil recorder is ignored, so torture workloads can pass their env's
// recorder through unconditionally). Safe to call while running.
func (s *Scheduler) SetTrace(r *trace.Recorder) {
	for i := range s.trw {
		s.trw[i].Store(r.Writer(i))
	}
}

// tw returns node id's trace writer, nil when tracing is off.
func (s *Scheduler) tw(id int) *trace.Writer { return s.trw[id].Load() }
