// Package ipc is the FlacOS communication system (paper §3.5).
//
// Cross-node IPC runs over shared data buffers in global memory: a
// connection is a pair of single-producer rings whose payload lines are
// written once by the sender and read once by the receiver — no
// serialization, no socket buffers, no network stack. This is the
// "zero-copy IPC via shared memory" data plane the Redis experiment
// (Figure 4) measures against TCP.
//
// Following the paper's placement analysis, socket METADATA (the name
// registry mapping service names to endpoints) is node-local, replicated
// with FlacDK's replication method; only data-plane buffers and tiny
// connection-state words live in shared memory.
//
// The package also implements migration-based RPC: the caller's thread
// switches into the service's code context (shared in global memory) and
// executes the handler itself, without a thread switch or a server-side
// queue — the Ford/Parmer thread-migration model the paper adopts.
package ipc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
	"flacos/internal/flacdk/replication"
)

// ErrClosed is returned on operations against a closed connection.
var ErrClosed = errors.New("ipc: connection closed")

// ErrNoService is returned when a name does not resolve.
var ErrNoService = errors.New("ipc: no such service")

// connection slot states (fabric word).
const (
	connFree uint64 = iota
	connConnecting
	connEstablished
	connClosed
)

const (
	regOpBind   = 1
	regOpUnbind = 2
)

// registrySM is the replicated socket-metadata table: name -> listener slot.
type registrySM struct {
	names map[string]uint64
}

func newRegistrySM() *registrySM { return &registrySM{names: make(map[string]uint64)} }

func (s *registrySM) Apply(op uint32, payload []byte) uint64 {
	switch op {
	case regOpBind:
		slot := binary.LittleEndian.Uint64(payload)
		name := string(payload[8:])
		if _, ok := s.names[name]; ok {
			return 0
		}
		s.names[name] = slot + 1
		return 1
	case regOpUnbind:
		name := string(payload)
		if _, ok := s.names[name]; !ok {
			return 0
		}
		delete(s.names, name)
		return 1
	}
	return 0
}

type connSlot struct {
	stateG fabric.GPtr
	c2s    *ds.SPSCRing // client -> server
	s2c    *ds.SPSCRing // server -> client
}

type listenerSlot struct {
	claimedG fabric.GPtr
	accept   *ds.MPSCRing // carries connection slot indices
}

// Config sizes the switchboard.
type Config struct {
	MaxConns     int    // connection slot pool
	MaxListeners int    // listener slot pool
	RingSlots    uint64 // per-direction ring capacity (messages)
	MsgMax       uint64 // largest message in bytes
}

// regLogCap is the name registry's operation log capacity in entries.
const regLogCap = 256

// Switchboard is the rack-wide IPC fabric: pre-laid-out connection and
// listener slots in global memory plus the replicated name registry. One
// Switchboard is created at boot; each node derives Endpoints from it.
type Switchboard struct {
	conns  []connSlot
	lsts   []listenerSlot
	regLog *replication.Log
}

// NewSwitchboard lays out the IPC fabric in f's global memory. node
// initializes ring control words.
func NewSwitchboard(f *fabric.Fabric, node *fabric.Node, cfg Config) *Switchboard {
	if cfg.MaxConns == 0 {
		cfg.MaxConns = 64
	}
	if cfg.MaxListeners == 0 {
		cfg.MaxListeners = 16
	}
	if cfg.RingSlots == 0 {
		cfg.RingSlots = 16
	}
	if cfg.MsgMax == 0 {
		cfg.MsgMax = 16 << 10
	}
	sb := &Switchboard{regLog: replication.NewLog(f, regLogCap)}
	sb.conns = make([]connSlot, cfg.MaxConns)
	for i := range sb.conns {
		sb.conns[i] = connSlot{
			stateG: f.Reserve(fabric.LineSize, fabric.LineSize),
			c2s:    ds.NewSPSCRing(f, cfg.RingSlots, cfg.MsgMax),
			s2c:    ds.NewSPSCRing(f, cfg.RingSlots, cfg.MsgMax),
		}
	}
	sb.lsts = make([]listenerSlot, cfg.MaxListeners)
	for i := range sb.lsts {
		sb.lsts[i] = listenerSlot{
			claimedG: f.Reserve(fabric.LineSize, fabric.LineSize),
			accept:   ds.NewMPSCRing(f, node, 16, 16),
		}
	}
	return sb
}

// Endpoint is one node's handle on the switchboard.
type Endpoint struct {
	sb   *Switchboard
	node *fabric.Node

	reg    *registrySM
	regRep *replication.Replica
	mu     sync.Mutex
}

// Endpoint attaches node n.
func (sb *Switchboard) Endpoint(n *fabric.Node) *Endpoint {
	e := &Endpoint{sb: sb, node: n, reg: newRegistrySM()}
	e.regRep = sb.regLog.Replica(n, e.reg)
	return e
}

// Listener accepts connections for a bound name.
type Listener struct {
	ep   *Endpoint
	name string
	slot int
}

// Bind claims a listener slot and registers name -> slot in the replicated
// registry (the domain-socket bind).
func (e *Endpoint) Bind(name string) (*Listener, error) {
	slot := -1
	for i := range e.sb.lsts {
		if e.node.CAS64(e.sb.lsts[i].claimedG, 0, 1) {
			slot = i
			break
		}
	}
	if slot < 0 {
		return nil, fmt.Errorf("ipc: bind %q: out of listener slots", name)
	}
	payload := make([]byte, 8+len(name))
	binary.LittleEndian.PutUint64(payload, uint64(slot))
	copy(payload[8:], name)
	if e.regRep.Execute(regOpBind, payload) == 0 {
		e.node.AtomicStore64(e.sb.lsts[slot].claimedG, 0)
		return nil, fmt.Errorf("ipc: bind %q: name in use", name)
	}
	return &Listener{ep: e, name: name, slot: slot}, nil
}

// Close unbinds the name and releases the listener slot.
func (l *Listener) Close() {
	l.ep.regRep.Execute(regOpUnbind, []byte(l.name))
	l.ep.node.AtomicStore64(l.ep.sb.lsts[l.slot].claimedG, 0)
}

// Accept waits for the next incoming connection.
func (l *Listener) Accept() *Conn {
	var buf [16]byte
	var ln int
	n, ring := l.ep.node, l.ep.sb.lsts[l.slot].accept
	n.Await(fabric.Wait{Site: "ipc.Listener.Accept", Arg: uint64(l.slot)}, func() (uint64, bool) {
		var ok bool
		ln, ok = ring.TryPop(n, buf[:])
		return 0, ok
	})
	idx := binary.LittleEndian.Uint64(buf[:ln])
	slot := &l.ep.sb.conns[idx]
	n.AtomicStore64(slot.stateG, connEstablished)
	return &Conn{node: n, slot: slot, server: true}
}

// lookup resolves a name through the replicated registry.
func (e *Endpoint) lookup(name string) (uint64, bool) {
	e.regRep.Sync()
	var slot uint64
	var ok bool
	e.regRep.ReadLocal(func(replication.StateMachine) {
		slot, ok = e.reg.names[name]
	})
	return slot - 1, ok && slot > 0
}

// Connect establishes a zero-copy channel to the named service: it claims
// a connection slot, enqueues it on the listener's accept ring, and waits
// for the server to accept.
func (e *Endpoint) Connect(name string) (*Conn, error) {
	lslot, ok := e.lookup(name)
	if !ok {
		return nil, fmt.Errorf("ipc: connect %q: %w", name, ErrNoService)
	}
	n := e.node
	idx := -1
	for i := range e.sb.conns {
		if n.CAS64(e.sb.conns[i].stateG, connFree, connConnecting) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("ipc: connect %q: out of connection slots", name)
	}
	var msg [8]byte
	binary.LittleEndian.PutUint64(msg[:], uint64(idx))
	e.sb.lsts[lslot].accept.Push(n, msg[:])
	slot := &e.sb.conns[idx]
	n.Await(fabric.Wait{Site: "ipc.Endpoint.Connect", Word: slot.stateG, Arg: uint64(idx)}, func() (uint64, bool) {
		st := n.AtomicLoad64(slot.stateG)
		return st, st != connConnecting
	})
	if n.AtomicLoad64(slot.stateG) != connEstablished {
		return nil, ErrClosed
	}
	return &Conn{node: n, slot: slot, server: false}, nil
}

// Conn is one side of an established channel. Each side must be driven by
// a single goroutine (the rings are single-producer/single-consumer), the
// usual discipline for a socket.
type Conn struct {
	node   *fabric.Node
	slot   *connSlot
	server bool
}

func (c *Conn) sendRing() *ds.SPSCRing {
	if c.server {
		return c.slot.s2c
	}
	return c.slot.c2s
}

func (c *Conn) recvRing() *ds.SPSCRing {
	if c.server {
		return c.slot.c2s
	}
	return c.slot.s2c
}

// Send transmits msg: one write of the payload into the shared ring, no
// intermediate copies.
func (c *Conn) Send(msg []byte) (err error) {
	c.node.Await(fabric.Wait{Site: "ipc.Conn.Send", Word: c.slot.stateG}, func() (uint64, bool) {
		st := c.node.AtomicLoad64(c.slot.stateG)
		if st != connEstablished {
			err = ErrClosed
			return st, true
		}
		return st, c.sendRing().TryPush(c.node, msg)
	})
	return err
}

// Recv receives the next message into buf, returning its length.
func (c *Conn) Recv(buf []byte) (n int, err error) {
	c.node.Await(fabric.Wait{Site: "ipc.Conn.Recv", Word: c.slot.stateG}, func() (uint64, bool) {
		var ok bool
		if n, ok = c.recvRing().TryPop(c.node, buf); ok {
			return 0, true
		}
		st := c.node.AtomicLoad64(c.slot.stateG)
		if st != connEstablished {
			// Drain anything that raced with close.
			if n, ok = c.recvRing().TryPop(c.node, buf); !ok {
				err = ErrClosed
			}
			return st, true
		}
		return st, false
	})
	return n, err
}

// Close tears the connection down for both sides. The slot stays closed
// for good: Connect claims only free slots, so MaxConns bounds every
// connection a rack ever opens.
func (c *Conn) Close() {
	n := c.node
	if n.AtomicLoad64(c.slot.stateG) == connEstablished {
		n.AtomicStore64(c.slot.stateG, connClosed)
	}
}
