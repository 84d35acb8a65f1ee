package ipc

import (
	"encoding/binary"
	"testing"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
)

// releaseAt installs a hook on n that calls release at n's k-th failed
// poll in Node.Await, before the poll after it. It returns the count of
// failed polls.
func releaseAt(n *fabric.Node, k int, release func()) *int {
	polls := new(int)
	n.SetOpHook(func(kind fabric.OpKind, _, _ uint64) {
		if kind == fabric.OpAwait {
			if *polls++; *polls == k {
				release()
			}
		}
	})
	return polls
}

// pair is a switchboard on two nodes with "svc" bound on node 0 and, once
// connect has run, one connection from node 1 to it.
type pair struct {
	f        *fabric.Fabric
	sb       *Switchboard
	srv, cli *Endpoint
	l        *Listener
	sc, cc   *Conn
}

func newPair(t *testing.T) *pair {
	t.Helper()
	f := fabric.New(fabric.Config{GlobalSize: 64 << 20, Nodes: 2, Latency: fabric.DefaultLatency()})
	sb := NewSwitchboard(f, f.Node(0), Config{RingSlots: 4, MsgMax: 256})
	p := &pair{f: f, sb: sb, srv: sb.Endpoint(f.Node(0)), cli: sb.Endpoint(f.Node(1))}
	var err error
	if p.l, err = p.srv.Bind("svc"); err != nil {
		t.Fatal(err)
	}
	return p
}

// connect opens the connection on one goroutine: the server accepts at
// the client's first failed poll.
func (p *pair) connect(t *testing.T) *pair {
	t.Helper()
	releaseAt(p.cli.node, 1, func() { p.sc = p.l.Accept() })
	var err error
	p.cc, err = p.cli.Connect("svc")
	p.cli.node.SetOpHook(nil)
	if err != nil || p.sc == nil {
		t.Fatalf("connect: %v, accepted %v", err, p.sc)
	}
	return p
}

// TestIPCWaitsMatchTheirLoops runs each ipc wait site through k failed
// polls, and the code it replaced (the loop hand-written here) through
// the same script, each on a fresh switchboard, and requires the waiting
// node's counters, virtual ns among them, to match.
func TestIPCWaitsMatchTheirLoops(t *testing.T) {
	msg, buf := []byte("request"), make([]byte, 256)
	fill := func(c *Conn) {
		for c.sendRing().TryPush(c.node, msg) {
		}
	}
	type rig struct {
		n       *fabric.Node
		wait    func()
		ref     func(k int, release func())
		release func()
	}
	sites := map[string]func(t *testing.T) rig{
		"Connect": func(t *testing.T) rig {
			p := newPair(t)
			return rig{n: p.cli.node,
				wait:    func() { p.cli.Connect("svc") },
				release: func() { p.l.Accept() },
				ref: func(k int, release func()) {
					e := p.cli
					lslot, _ := e.lookup("svc")
					n := e.node
					idx := -1
					for i := range e.sb.conns {
						if n.CAS64(e.sb.conns[i].stateG, connFree, connConnecting) {
							idx = i
							break
						}
					}
					var m [8]byte
					binary.LittleEndian.PutUint64(m[:], uint64(idx))
					e.sb.lsts[lslot].accept.Push(n, m[:])
					slot := &e.sb.conns[idx]
					for i := 1; n.AtomicLoad64(slot.stateG) == connConnecting; i++ {
						if i == k {
							release()
						}
					}
					n.AtomicLoad64(slot.stateG)
				}}
		},
		"Accept": func(t *testing.T) rig {
			p := newPair(t)
			n1 := p.f.Node(1)
			return rig{n: p.srv.node,
				wait: func() { p.l.Accept() },
				release: func() {
					n1.CAS64(p.sb.conns[0].stateG, connFree, connConnecting)
					var m [8]byte
					p.sb.lsts[p.l.slot].accept.TryPush(n1, m[:])
				},
				ref: func(k int, release func()) {
					var b [16]byte
					n := p.l.ep.node
					ln := 0
					for i := 1; ; i++ {
						var ok bool
						if ln, ok = p.l.ep.sb.lsts[p.l.slot].accept.TryPop(n, b[:]); ok {
							break
						}
						if i == k {
							release()
						}
					}
					idx := binary.LittleEndian.Uint64(b[:ln])
					n.AtomicStore64(p.l.ep.sb.conns[idx].stateG, connEstablished)
				}}
		},
		"Send": func(t *testing.T) rig {
			p := newPair(t).connect(t)
			fill(p.cc)
			return rig{n: p.cli.node,
				wait:    func() { p.cc.Send(msg) },
				release: func() { p.sc.Recv(buf) },
				ref: func(k int, release func()) {
					c := p.cc
					for i := 1; ; i++ {
						if c.node.AtomicLoad64(c.slot.stateG) != connEstablished {
							return
						}
						if c.sendRing().TryPush(c.node, msg) {
							return
						}
						if i == k {
							release()
						}
					}
				}}
		},
		"Recv": func(t *testing.T) rig {
			p := newPair(t).connect(t)
			return rig{n: p.cli.node,
				wait:    func() { p.cc.Recv(buf) },
				release: func() { p.sc.Send(msg) },
				ref: func(k int, release func()) {
					c := p.cc
					for i := 1; ; i++ {
						if _, ok := c.recvRing().TryPop(c.node, buf); ok {
							return
						}
						if c.node.AtomicLoad64(c.slot.stateG) != connEstablished {
							c.recvRing().TryPop(c.node, buf)
							return
						}
						if i == k {
							release()
						}
					}
				}}
		},
	}
	for name, build := range sites {
		t.Run(name, func(t *testing.T) {
			for _, k := range []int{1, 3, 8} {
				site := build(t)
				polls := releaseAt(site.n, k, site.release)
				before := site.n.Stats()
				site.wait()
				site.n.SetOpHook(nil)
				got := site.n.Stats().Delta(before)
				if *polls != k {
					t.Fatalf("the site failed %d polls, want the scripted %d", *polls, k)
				}
				ref := build(t)
				before = ref.n.Stats()
				ref.ref(k, ref.release)
				if want := ref.n.Stats().Delta(before); got != want || got.VirtualNS == 0 {
					t.Fatalf("after %d failed polls the site charged\n  %+v\nthe code it replaced\n  %+v", k, got, want)
				}
			}
		})
	}
}

func TestSendRecvWithAReadyPeerAllocateNothing(t *testing.T) {
	p := newPair(t).connect(t)
	msg, buf := []byte("ping"), make([]byte, 256)
	allocs := testing.AllocsPerRun(100, func() {
		if err := p.cc.Send(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := p.sc.Recv(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Send and Recv with a ready peer allocate %v times, want 0", allocs)
	}
}

// waitFor polls node n's wait table until a record of site opens, for at
// most five seconds.
func waitFor(t *testing.T, n *fabric.Node, site string) *fabric.WaitRecord {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, r := range n.Waits() {
			if r.Site == site {
				return r
			}
		}
	}
	t.Fatalf("no open %s wait on node %d; open: %v", site, n.ID(), n.Waits())
	return nil
}

// stallAfterTicket pushes msg onto ring from node n on its own goroutine
// and holds that producer at its payload's write-back: after the tail CAS
// that took its ticket, before the slot is published. It returns once the
// ticket is taken; calling the returned func lets the producer publish
// and waits for it.
func stallAfterTicket(ring *ds.MPSCRing, n *fabric.Node, msg []byte) (publish func()) {
	held, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	n.SetOpHook(func(kind fabric.OpKind, _, _ uint64) {
		if kind == fabric.OpWriteBackRange {
			n.SetOpHook(nil)
			close(held)
			<-release
		}
	})
	go func() {
		defer close(done)
		ring.TryPush(n, msg)
	}()
	<-held
	return func() { close(release); <-done }
}

// TestDeadAcceptProducerStopsTheListener scripts a producer that takes a
// ticket on a listener's accept ring with the ring's tail CAS and does not
// publish it. Accept waits at that slot, named by its open record, and a
// Connect behind the dead ticket waits too, though its own connection
// request is in the ring. Publishing the dead slot releases both, in ring
// order.
func TestDeadAcceptProducerStopsTheListener(t *testing.T) {
	p := newPair(t)
	n1 := p.f.Node(1)
	const dead = 9 // the connection slot the dead producer announces
	n1.CAS64(p.sb.conns[dead].stateG, connFree, connConnecting)
	var m [8]byte
	binary.LittleEndian.PutUint64(m[:], dead)
	publish := stallAfterTicket(p.sb.lsts[p.l.slot].accept, n1, m[:])
	accepted := make(chan *Conn, 2)
	go func() { accepted <- p.l.Accept() }()
	rec := waitFor(t, p.srv.node, "ipc.Listener.Accept")
	if rec.Arg != uint64(p.l.slot) || rec.Node != 0 {
		t.Fatalf("Accept's record %v does not name listener slot %d on node 0", rec, p.l.slot)
	}
	connected := make(chan *Conn, 1)
	go func() {
		c, err := p.cli.Connect("svc")
		if err != nil {
			t.Error(err)
		}
		connected <- c
	}()
	waitFor(t, n1, "ipc.Endpoint.Connect")
	select {
	case c := <-accepted:
		t.Fatalf("Accept returned %v past the unpublished ticket", c)
	case <-time.After(20 * time.Millisecond):
	}

	publish()
	if c := <-accepted; c.slot != &p.sb.conns[dead] {
		t.Fatal("Accept did not return the published slot's connection first")
	}
	go func() { accepted <- p.l.Accept() }()
	c := <-connected
	if sc := <-accepted; sc.slot != c.slot {
		t.Fatal("the second Accept did not return the waiting Connect's connection")
	}
	if w := p.srv.node.Waits(); len(w) != 0 {
		t.Fatalf("open waits after both returned: %v", w)
	}
}
