// Package netstack is the BASELINE the paper's evaluation compares FlacOS
// against: the disaggregated, network-based world of Figure 1(a), where
// nodes talk over a TCP/IP software stack on direct-connected Ethernet (or
// over one-sided RDMA verbs).
//
// The simulation charges exactly the cost classes the paper names as the
// dominant overhead of the networking method — buffer allocations, data
// copies, and stack processing — plus wire serialization and propagation.
// Messages are delivered through in-process queues; all latency comes from
// the explicit cost model so benchmark comparisons against FlacOS IPC
// reflect the modeled software overheads, not Go scheduling noise.
package netstack

import (
	"errors"
	"fmt"
	"sync"

	"flacos/internal/fabric"
)

// ErrClosed is returned on operations against a closed connection.
var ErrClosed = errors.New("netstack: connection closed")

// Config models one transport's cost structure (all times nanoseconds).
type Config struct {
	// WireLatencyNS is one-way propagation + switch latency per packet.
	WireLatencyNS int
	// BandwidthBytesPerNS is the link's serialization rate (bytes per ns);
	// 1.25 means 10 Gbit/s, 12.5 means 100 Gbit/s.
	BandwidthBytesPerNS float64
	// StackProcessNS is per-packet protocol processing on EACH side:
	// header processing, checksums, interrupt + softirq, socket wakeup.
	StackProcessNS int
	// BufferAllocNS is the allocation cost of a send/receive buffer (skb).
	BufferAllocNS int
	// CopiesPerSide is the number of data copies each side performs
	// (user<->socket buffer, socket buffer<->NIC ring: classically 2).
	CopiesPerSide int
	// MTU is the maximum payload per packet.
	MTU int
}

const (
	// copyNSPerByte is the memcpy rate for one data copy.
	copyNSPerByte = 0.05
	// queueDepth is the per-connection in-flight message budget.
	queueDepth = 64
)

// DefaultTCP returns a cost model for TCP over direct-connected 25 GbE —
// the "networking" bars of Figure 4.
func DefaultTCP() Config {
	return Config{
		WireLatencyNS:       2_000,
		BandwidthBytesPerNS: 3.125, // 25 Gbit/s
		StackProcessNS:      4_500, // header+checksum+IRQ+softirq+wakeup per packet
		BufferAllocNS:       700,
		CopiesPerSide:       2,
		MTU:                 1500,
	}
}

// DefaultRDMA returns a cost model for one-sided RDMA over 100 Gb fabric:
// no per-packet stack processing on the passive side, one copy, kernel
// bypass — but still NIC doorbells, PCIe and wire latency.
func DefaultRDMA() Config {
	return Config{
		WireLatencyNS:       1_200,
		BandwidthBytesPerNS: 12.5, // 100 Gbit/s
		StackProcessNS:      600,  // verb post + completion polling
		BufferAllocNS:       0,    // pre-registered MRs
		CopiesPerSide:       1,
		MTU:                 4096,
	}
}

// sendCost returns the sender-side cost of transmitting size bytes.
func (c Config) sendCost(size int) int {
	packets := (size + c.MTU - 1) / c.MTU
	if packets == 0 {
		packets = 1
	}
	cost := c.BufferAllocNS +
		packets*c.StackProcessNS +
		int(float64(size)*copyNSPerByte)*c.CopiesPerSide +
		int(float64(size)/c.BandwidthBytesPerNS)
	return cost
}

// recvCost returns the receiver-side cost of absorbing size bytes,
// including the wire's one-way latency.
func (c Config) recvCost(size int) int {
	packets := (size + c.MTU - 1) / c.MTU
	if packets == 0 {
		packets = 1
	}
	return c.WireLatencyNS +
		c.BufferAllocNS +
		packets*c.StackProcessNS +
		int(float64(size)*copyNSPerByte)*c.CopiesPerSide
}

// Network is one simulated fabric of links between the rack's nodes.
type Network struct {
	cfg Config

	mu        sync.Mutex
	listeners map[string]*Listener
}

// New creates a network with the given cost model.
func New(cfg Config) *Network {
	return &Network{cfg: cfg, listeners: make(map[string]*Listener)}
}

// Listener accepts inbound connections on an address.
type Listener struct {
	nw      *Network
	node    *fabric.Node
	addr    string
	backlog chan *Conn
	closed  bool
}

// Listen binds addr on node n.
func (nw *Network) Listen(n *fabric.Node, addr string) (*Listener, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if _, ok := nw.listeners[addr]; ok {
		return nil, fmt.Errorf("netstack: listen %s: address in use", addr)
	}
	l := &Listener{nw: nw, node: n, addr: addr, backlog: make(chan *Conn, 16)}
	nw.listeners[addr] = l
	return l, nil
}

// Accept returns the next established connection.
func (l *Listener) Accept() (*Conn, error) {
	c, ok := <-l.backlog
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}

// Close stops the listener.
func (l *Listener) Close() {
	l.nw.mu.Lock()
	defer l.nw.mu.Unlock()
	if !l.closed {
		l.closed = true
		delete(l.nw.listeners, l.addr)
		close(l.backlog)
	}
}

// Conn is one side of an established connection.
type Conn struct {
	nw   *Network
	node *fabric.Node

	in     chan []byte
	peerIn chan []byte

	closeOnce *sync.Once // shared by both sides
	closedCh  chan struct{}
}

// Dial connects node n to addr, paying a three-way-handshake's worth of
// round trips.
func (nw *Network) Dial(n *fabric.Node, addr string) (*Conn, error) {
	nw.mu.Lock()
	l := nw.listeners[addr]
	nw.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("netstack: dial %s: connection refused", addr)
	}
	cIn := make(chan []byte, queueDepth)
	sIn := make(chan []byte, queueDepth)
	once := new(sync.Once)
	closedCh := make(chan struct{})
	client := &Conn{nw: nw, node: n, in: cIn, peerIn: sIn, closeOnce: once, closedCh: closedCh}
	server := &Conn{nw: nw, node: l.node, in: sIn, peerIn: cIn, closeOnce: once, closedCh: closedCh}
	// SYN, SYN-ACK, ACK: one and a half RTTs of wire + stack on each end.
	n.ChargeNS(3 * (nw.cfg.WireLatencyNS + nw.cfg.StackProcessNS))
	select {
	case l.backlog <- server:
	default:
		return nil, fmt.Errorf("netstack: dial %s: backlog full", addr)
	}
	return client, nil
}

// Send transmits msg, charging the sender's share of the software stack.
func (c *Conn) Send(msg []byte) error {
	select {
	case <-c.closedCh:
		return ErrClosed
	default:
	}
	// The stack copies the user's buffer into socket buffers — the data no
	// longer aliases the caller's slice, which we reproduce faithfully.
	cp := make([]byte, len(msg))
	copy(cp, msg)
	c.node.ChargeNS(c.nw.cfg.sendCost(len(msg)))
	select {
	case c.peerIn <- cp:
		return nil
	case <-c.closedCh:
		return ErrClosed
	}
}

// Recv receives the next message into buf, charging the receiver's share.
// Messages already in flight when the connection closes are still
// delivered.
func (c *Conn) Recv(buf []byte) (int, error) {
	var msg []byte
	select {
	case msg = <-c.in: // drain in-flight data first
	default:
		select {
		case msg = <-c.in:
		case <-c.closedCh:
			// Close raced with a sender: one more non-blocking drain.
			select {
			case msg = <-c.in:
			default:
				return 0, ErrClosed
			}
		}
	}
	if len(msg) > len(buf) {
		return 0, fmt.Errorf("netstack: message %d exceeds buffer %d", len(msg), len(buf))
	}
	c.node.ChargeNS(c.nw.cfg.recvCost(len(msg)))
	copy(buf, msg)
	return len(msg), nil
}

// Close shuts down both directions (idempotent, either side).
func (c *Conn) Close() {
	c.closeOnce.Do(func() { close(c.closedCh) })
}
