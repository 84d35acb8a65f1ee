package replication

// Capacity returns the log's entry capacity.
func (l *Log) Capacity() uint64 { return l.capacity }

// AppliedIndex returns how many log entries this replica has applied.
func (r *Replica) AppliedIndex() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.localApplied
}
