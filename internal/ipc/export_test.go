package ipc

import "flacos/internal/fabric"

// Activations returns how many times the service has been invoked,
// rack-wide.
func (s *Service) Activations(n *fabric.Node) uint64 { return n.AtomicLoad64(s.ctxG) }

// Calls returns the table's lifetime call count.
func (t *ServiceTable) Calls() uint64 { return t.calls.Load() }
