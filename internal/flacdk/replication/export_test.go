package replication

// Capacity returns the log's entry capacity.
func (l *Log) Capacity() uint64 { return l.capacity }
