package netstack

import (
	"fmt"
	"sync"

	"flacos/internal/fabric"
)

// MemoryRegion is a pinned, remotely accessible buffer — the registered MR
// of RDMA verbs. It lives in the owner's memory; remote nodes reach it only
// through one-sided Read/Write verbs that pay NIC + wire costs.
type MemoryRegion struct {
	mu   sync.Mutex
	data []byte
}

// NewMemoryRegion registers size bytes.
func NewMemoryRegion(size int) *MemoryRegion {
	return &MemoryRegion{data: make([]byte, size)}
}

// RDMA is the one-sided verbs transport over the network's RDMA cost
// model. It represents the "disaggregated memory over RDMA" baseline: data
// is reachable remotely, but every access is a full NIC round trip, unlike
// load/store-able fabric memory.
type RDMA struct {
	cfg Config
}

// NewRDMA creates a verbs transport with the given cost model (typically
// DefaultRDMA()).
func NewRDMA(cfg Config) *RDMA { return &RDMA{cfg: cfg} }

// Write performs a one-sided RDMA write of data into mr at off, charged to
// the initiating node. The passive side spends nothing — the defining RDMA
// property.
func (r *RDMA) Write(n *fabric.Node, mr *MemoryRegion, off int, data []byte) error {
	if off+len(data) > len(mr.data) {
		return fmt.Errorf("netstack: rdma write [%d,+%d) outside region of %d", off, len(data), len(mr.data))
	}
	n.ChargeNS(r.cfg.sendCost(len(data)) + r.cfg.WireLatencyNS)
	mr.mu.Lock()
	copy(mr.data[off:], data)
	mr.mu.Unlock()
	return nil
}

// Read performs a one-sided RDMA read from mr at off into buf. The
// initiator pays a full round trip: request out, data back.
func (r *RDMA) Read(n *fabric.Node, mr *MemoryRegion, off int, buf []byte) error {
	if off+len(buf) > len(mr.data) {
		return fmt.Errorf("netstack: rdma read [%d,+%d) outside region of %d", off, len(buf), len(mr.data))
	}
	n.ChargeNS(2*r.cfg.WireLatencyNS + r.cfg.sendCost(len(buf)))
	mr.mu.Lock()
	copy(buf, mr.data[off:off+len(buf)])
	mr.mu.Unlock()
	return nil
}
