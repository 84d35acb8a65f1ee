package sched

// ReclaimLog returns the most recent lease-expiry records (oldest
// first, at most reclaimLogCap), each formatted with trace.VNS.
func (s *Scheduler) ReclaimLog() []string {
	s.tr.reclaimMu.Lock()
	defer s.tr.reclaimMu.Unlock()
	return append([]string(nil), s.tr.reclaimLog...)
}
