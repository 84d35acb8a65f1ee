package ipc

import (
	"fmt"
	"sync"

	"flacos/internal/fabric"
)

// asSwitchNS models one address-space switch (page-table base swap plus
// the TLB refill tax) — the cost the migrating thread pays instead of a
// full network round trip or a cross-thread handoff.
const asSwitchNS = 250

// Handler is a service's code: it runs ON THE CALLER'S THREAD (thread-
// migration RPC), with the caller's node identity for memory-cost
// accounting, against the service's state in global memory.
type Handler func(caller *fabric.Node, req []byte) []byte

// Service is an RPC service whose code context is shared rack-wide: any
// node can invoke it by switching into its address space, and its
// activation counter (in global memory) records rack-wide usage — the
// basis for the elastic scale-out and fast migration §3.5 describes.
type Service struct {
	handler Handler
	ctxG    fabric.GPtr // word0: activation count
}

// ServiceTable holds the rack's shared code contexts. In a real FlacOS the
// text and context descriptors live in global memory; the simulation keeps
// the Go function values in a process-wide table (all nodes share the
// process) and the descriptors in fabric memory.
type ServiceTable struct {
	fab *fabric.Fabric

	mu       sync.RWMutex
	services map[string]*Service
}

// NewServiceTable creates the rack's RPC service table.
func NewServiceTable(f *fabric.Fabric) *ServiceTable {
	return &ServiceTable{fab: f, services: make(map[string]*Service)}
}

// Register publishes a service. Registering an existing name replaces its
// handler (code upgrade) but keeps the shared context descriptor.
func (t *ServiceTable) Register(name string, h Handler) *Service {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.services[name]; ok {
		s.handler = h
		return s
	}
	s := &Service{
		handler: h,
		ctxG:    t.fab.Reserve(fabric.LineSize, fabric.LineSize),
	}
	t.services[name] = s
	return s
}

// Call performs a migration-based RPC from node n: the calling thread
// switches into the service's shared code context, executes the handler
// itself, and switches back. No thread switch, no queueing, no copies of
// req beyond what the handler itself does.
func (t *ServiceTable) Call(n *fabric.Node, name string, req []byte) ([]byte, error) {
	t.mu.RLock()
	s, ok := t.services[name]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("ipc: rpc %q: %w", name, ErrNoService)
	}
	n.ChargeNS(asSwitchNS) // switch into the service's address space
	n.Add64(s.ctxG, 1)
	resp := s.handler(n, req)
	n.ChargeNS(asSwitchNS) // switch back
	return resp, nil
}
