package ipc

import "flacos/internal/fabric"

// Activations returns how many times the service has been invoked,
// rack-wide.
func (s *Service) Activations(n *fabric.Node) uint64 { return n.AtomicLoad64(s.ctxG) }

// Calls returns the table's lifetime call count as node n reads it: the
// sum of its services' activation counters.
func (t *ServiceTable) Calls(n *fabric.Node) uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var calls uint64
	for _, s := range t.services {
		calls += s.Activations(n)
	}
	return calls
}
