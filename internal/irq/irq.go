// Package irq implements the paper's §5 "rack-wide interrupt" future-work
// items as a software layer over the fabric:
//
//   - IPI: inter-processor interrupts delivered to cores on OTHER nodes,
//     carried through per-node MPSC rings in global memory;
//   - mwait: waiting on a global memory word and waking when its value
//     changes (monitor/mwait semantics for fast cross-node notification);
//   - interrupt routing: external (device) interrupts steered to the
//     least-loaded node, rack-wide irqbalance.
//
// Hardware interconnects do not provide these today — which is exactly why
// the paper lists them as open challenges; this package shows the software
// shape FlacOS wants from them and lets the rest of the system (TLB
// shootdown, delegation wakeups, device completion) program against it.
package irq

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
)

// Vector identifies an interrupt source.
type Vector uint32

// Handler runs in the receiving node's interrupt context.
type Handler func(fromNode int, v Vector, arg uint64)

// ipiCostNS models the send-side cost of crossing the fabric with a
// doorbell write.
const ipiCostNS = 1500

// Controller is the rack's interrupt controller.
type Controller struct {
	fab    *fabric.Fabric
	queues []*ds.MPSCRing // one inbox per node

	mu       sync.Mutex
	handlers []map[Vector]Handler

	sent      atomic.Uint64
	delivered atomic.Uint64
	spurious  atomic.Uint64
}

// NewController lays out one IPI inbox per node (init runs on node).
func NewController(f *fabric.Fabric, node *fabric.Node, inboxDepth uint64) *Controller {
	if inboxDepth == 0 {
		inboxDepth = 64
	}
	c := &Controller{fab: f}
	c.queues = make([]*ds.MPSCRing, f.NumNodes())
	c.handlers = make([]map[Vector]Handler, f.NumNodes())
	for i := range c.queues {
		c.queues[i] = ds.NewMPSCRing(f, node, inboxDepth, 24)
		c.handlers[i] = make(map[Vector]Handler)
	}
	return c
}

// Register installs node's handler for vector v (replacing any previous).
func (c *Controller) Register(node int, v Vector, h Handler) {
	c.mu.Lock()
	c.handlers[node][v] = h
	c.mu.Unlock()
}

// SendIPI posts an inter-processor interrupt from the calling node to any
// core of node `to`. It is the §5 "IPI extended to cores located in
// different nodes".
func (c *Controller) SendIPI(from *fabric.Node, to int, v Vector, arg uint64) error {
	if to < 0 || to >= len(c.queues) {
		return fmt.Errorf("irq: no node %d", to)
	}
	var msg [24]byte
	binary.LittleEndian.PutUint64(msg[:], uint64(from.ID()))
	binary.LittleEndian.PutUint32(msg[8:], uint32(v))
	binary.LittleEndian.PutUint64(msg[16:], arg)
	from.ChargeNS(ipiCostNS)
	if !c.queues[to].TryPush(from, msg[:]) {
		return fmt.Errorf("irq: node %d inbox full", to)
	}
	c.sent.Add(1)
	return nil
}

// DispatchOnce drains node's inbox, invoking handlers; returns how many
// interrupts were handled. The caller decides when node n takes its
// interrupts.
func (c *Controller) DispatchOnce(n *fabric.Node) int {
	var buf [24]byte
	handled := 0
	for {
		ln, ok := c.queues[n.ID()].TryPop(n, buf[:])
		if !ok {
			return handled
		}
		if ln != 24 {
			c.spurious.Add(1)
			continue
		}
		from := int(binary.LittleEndian.Uint64(buf[:]))
		v := Vector(binary.LittleEndian.Uint32(buf[8:]))
		arg := binary.LittleEndian.Uint64(buf[16:])
		c.mu.Lock()
		h := c.handlers[n.ID()][v]
		c.mu.Unlock()
		if h == nil {
			c.spurious.Add(1)
			continue
		}
		n.ChargeNS(500) // interrupt entry/exit
		h(from, v, arg)
		c.delivered.Add(1)
		handled++
	}
}

// Stats returns (sent, delivered, spurious) counters.
func (c *Controller) Stats() (sent, delivered, spurious uint64) {
	return c.sent.Load(), c.delivered.Load(), c.spurious.Load()
}

// MWait blocks until the global word at g differs from old or the timeout
// elapses, returning the observed value and whether a change was seen.
// It models §5's "global memory triggering an interrupt similar to
// monitor/mwait": the waiting core polls home memory with an exponential
// backoff, charging one fabric atomic per probe.
func MWait(n *fabric.Node, g fabric.GPtr, old uint64, timeout time.Duration) (uint64, bool) {
	deadline := time.Now().Add(timeout)
	backoff := 1
	for {
		if v := n.AtomicLoad64(g); v != old {
			return v, true
		}
		if time.Now().After(deadline) {
			return old, false
		}
		for i := 0; i < backoff; i++ {
			runtime.Gosched()
		}
		if backoff < 64 {
			backoff <<= 1
		}
	}
}

// Notify publishes a new value at g, waking MWaiters.
func Notify(n *fabric.Node, g fabric.GPtr, val uint64) { n.AtomicStore64(g, val) }

// Router steers external (device) interrupts to nodes — §5's rack-wide
// irqbalance. Devices call RouteExternal; the router picks the node with
// the fewest in-flight interrupts.
type Router struct {
	c       *Controller
	pending []atomic.Int64
}

// NewRouter creates a router over the controller.
func NewRouter(c *Controller) *Router {
	return &Router{c: c, pending: make([]atomic.Int64, len(c.queues))}
}

// RouteExternal delivers a device interrupt to the least-loaded node and
// returns the chosen node. from is the node the device is attached to
// (whose fabric port carries the message).
func (r *Router) RouteExternal(from *fabric.Node, v Vector, arg uint64) (int, error) {
	best := 0
	for i := 1; i < len(r.pending); i++ {
		if r.pending[i].Load() < r.pending[best].Load() {
			best = i
		}
	}
	r.pending[best].Add(1)
	err := r.c.SendIPI(from, best, v, arg)
	if err != nil {
		r.pending[best].Add(-1)
	}
	return best, err
}

// Complete records that a routed interrupt finished processing on node.
func (r *Router) Complete(node int) { r.pending[node].Add(-1) }

// Pending returns the per-node in-flight counts (diagnostics).
func (r *Router) Pending() []int64 {
	out := make([]int64, len(r.pending))
	for i := range r.pending {
		out[i] = r.pending[i].Load()
	}
	return out
}
