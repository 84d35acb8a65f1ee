package ipc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"flacos/internal/fabric"
)

func newSB(t *testing.T, nodes int) (*fabric.Fabric, *Switchboard) {
	t.Helper()
	f := fabric.New(fabric.Config{GlobalSize: 64 << 20, Nodes: nodes})
	return f, NewSwitchboard(f, f.Node(0), Config{})
}

func TestConnectSendRecvAcrossNodes(t *testing.T) {
	f, sb := newSB(t, 2)
	server := sb.Endpoint(f.Node(0))
	client := sb.Endpoint(f.Node(1))

	l, err := server.Bind("echo")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := l.Accept()
		buf := make([]byte, 1024)
		for {
			n, err := c.Recv(buf)
			if err != nil {
				return
			}
			c.Send(buf[:n])
		}
	}()
	c, err := client.Connect("echo")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("zero copy across the rack")
	if err := c.Send(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	n, err := c.Recv(buf)
	if err != nil || !bytes.Equal(buf[:n], msg) {
		t.Fatalf("echo = %q, %v", buf[:n], err)
	}
	c.Close()
	wg.Wait()
	l.Close()
}

func TestConnectUnknownService(t *testing.T) {
	f, sb := newSB(t, 1)
	e := sb.Endpoint(f.Node(0))
	if _, err := e.Connect("nope"); !errors.Is(err, ErrNoService) {
		t.Fatalf("err = %v", err)
	}
}

func TestBindDuplicateNameFails(t *testing.T) {
	f, sb := newSB(t, 2)
	e0 := sb.Endpoint(f.Node(0))
	e1 := sb.Endpoint(f.Node(1))
	l, err := e0.Bind("svc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Bind("svc"); err == nil {
		t.Fatal("duplicate bind from another node should fail")
	}
	l.Close()
	// After close the name is free again.
	l2, err := e1.Bind("svc")
	if err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	l2.Close()
}

func TestCloseUnblocksRecvAndSlotReuse(t *testing.T) {
	f, sb := newSB(t, 2)
	server := sb.Endpoint(f.Node(0))
	client := sb.Endpoint(f.Node(1))
	l, _ := server.Bind("s")
	defer l.Close()

	for round := 0; round < 3; round++ { // slot must be reusable
		var srv *Conn
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv = l.Accept()
			buf := make([]byte, 64)
			for {
				if _, err := srv.Recv(buf); err != nil {
					return
				}
			}
		}()
		c, err := client.Connect("s")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		c.Send([]byte("hi"))
		c.Close()
		wg.Wait()
		if err := c.Send([]byte("x")); !errors.Is(err, ErrClosed) {
			t.Fatal("send on closed conn should fail")
		}
		c.Release()
	}
}

// TestReleaseThenConnectFromAnotherNode recycles one connection slot
// between clients on different nodes. Release drains both rings — its own
// send ring as a foreign consumer — and every later user of the slot finds
// ring sides last driven by some other node, so each must re-attach: no
// leftover delivered, no lap lost, and a node that returns to the slot
// must not read lines it cached from the slot's earlier connections.
func TestReleaseThenConnectFromAnotherNode(t *testing.T) {
	f, sb := newSB(t, 3)
	server := sb.Endpoint(f.Node(0))
	l, err := server.Bind("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const echoes = 20 // more than RingSlots: every slot of both rings is used
	var slot *connSlot
	round := func(client *Endpoint, size int, tag byte) {
		t.Helper()
		echoed, done := make(chan struct{}, echoes), make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv := l.Accept()
			buf := make([]byte, size)
			for i := 0; i < echoes; i++ {
				n, err := srv.Recv(buf)
				if err != nil || srv.Send(buf[:n]) != nil {
					t.Errorf("server echo %d failed", i)
					close(echoed) // do not leave the client waiting
					return
				}
				echoed <- struct{}{}
			}
			<-done // receive nothing more: what the client sends now stays queued
		}()
		c, err := client.Connect("svc")
		if err != nil {
			t.Fatal(err)
		}
		if slot == nil {
			slot = c.slot
		} else if c.slot != slot {
			t.Fatal("released slot was not reused")
		}
		msg, buf := make([]byte, size), make([]byte, size)
		for i := 0; i < echoes; i++ {
			for j := range msg {
				msg[j] = tag + byte(i) + byte(j)*7
			}
			if err := c.Send(msg); err != nil {
				t.Fatal(err)
			}
			<-echoed
			if i == echoes-1 {
				break // leave the last echo queued for Release to drain
			}
			if n, err := c.Recv(buf); err != nil || !bytes.Equal(buf[:n], msg) {
				t.Fatalf("node %d, echo %d of %d B: wrong reply (%d B, %v)", client.Node().ID(), i, size, n, err)
			}
		}
		c.Send(msg) // two requests nobody receives
		c.Send(msg)
		c.Close()
		close(done)
		wg.Wait()
		c.Release()
	}
	round(sb.Endpoint(f.Node(1)), 4000, 1)
	round(sb.Endpoint(f.Node(2)), 40, 2) // the consumers' extents shrink to one line
	round(sb.Endpoint(f.Node(1)), 4000, 3)
}

func TestManyConcurrentConnections(t *testing.T) {
	f, sb := newSB(t, 4)
	server := sb.Endpoint(f.Node(0))
	l, _ := server.Bind("multi")
	defer l.Close()

	const clients = 8
	var swg sync.WaitGroup
	swg.Add(1)
	go func() {
		defer swg.Done()
		var hwg sync.WaitGroup
		for i := 0; i < clients; i++ {
			c := l.Accept()
			hwg.Add(1)
			go func(c *Conn) {
				defer hwg.Done()
				buf := make([]byte, 256)
				for {
					n, err := c.Recv(buf)
					if err != nil {
						return
					}
					// Double every byte as the "service result".
					for j := 0; j < n; j++ {
						buf[j] *= 2
					}
					c.Send(buf[:n])
				}
			}(c)
		}
		hwg.Wait()
	}()

	var cwg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			e := sb.Endpoint(f.Node(1 + i%3))
			c, err := e.Connect("multi")
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			buf := make([]byte, 256)
			for round := 0; round < 50; round++ {
				msg := []byte{byte(i), byte(round), 3}
				c.Send(msg)
				n, err := c.Recv(buf)
				if err != nil || n != 3 || buf[0] != byte(i)*2 || buf[2] != 6 {
					t.Errorf("client %d round %d: % x err %v", i, round, buf[:n], err)
					return
				}
			}
			c.Close()
		}(i)
	}
	cwg.Wait()
	swg.Wait()
}

func TestLargeMessages(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 64 << 20, Nodes: 2})
	sb := NewSwitchboard(f, f.Node(0), Config{MsgMax: 8 << 10, RingSlots: 4})
	server := sb.Endpoint(f.Node(0))
	client := sb.Endpoint(f.Node(1))
	l, _ := server.Bind("big")
	defer l.Close()
	go func() {
		c := l.Accept()
		buf := make([]byte, 8<<10)
		for {
			n, err := c.Recv(buf)
			if err != nil {
				return
			}
			c.Send(buf[:n])
		}
	}()
	c, _ := client.Connect("big")
	defer c.Close()
	msg := bytes.Repeat([]byte{0xF0}, 8<<10)
	c.Send(msg)
	buf := make([]byte, 8<<10)
	n, err := c.Recv(buf)
	if err != nil || n != len(msg) || !bytes.Equal(buf[:n], msg) {
		t.Fatalf("large echo n=%d err=%v", n, err)
	}
}

func TestMigrationRPC(t *testing.T) {
	f, sb := newSB(t, 2)
	_ = sb
	tbl := NewServiceTable(f)

	// Service state lives in global memory; the handler runs on the
	// CALLER's node and still sees it — shared code context semantics.
	stateG := f.Reserve(fabric.LineSize, fabric.LineSize)
	svc := tbl.Register("counter", func(caller *fabric.Node, req []byte) []byte {
		v := caller.Add64(stateG, uint64(req[0]))
		var out [8]byte
		binary.LittleEndian.PutUint64(out[:], v)
		return out[:]
	})

	resp, err := tbl.Call(f.Node(0), "counter", []byte{5})
	if err != nil || binary.LittleEndian.Uint64(resp) != 5 {
		t.Fatalf("call 1 = %v, %v", resp, err)
	}
	// Invoked from the OTHER node without any server thread there.
	resp, err = tbl.Call(f.Node(1), "counter", []byte{3})
	if err != nil || binary.LittleEndian.Uint64(resp) != 8 {
		t.Fatalf("call 2 = %v, %v", resp, err)
	}
	if svc.Activations(f.Node(0)) != 2 {
		t.Fatalf("activations = %d", svc.Activations(f.Node(0)))
	}
	if tbl.Calls() != 2 {
		t.Fatalf("calls = %d", tbl.Calls())
	}
	if _, err := tbl.Call(f.Node(0), "missing", nil); !errors.Is(err, ErrNoService) {
		t.Fatalf("err = %v", err)
	}
	tbl.Unregister("counter")
	if _, err := tbl.Call(f.Node(0), "counter", []byte{1}); err == nil {
		t.Fatal("call after unregister should fail")
	}
}

func TestRPCHandlerUpgradeKeepsContext(t *testing.T) {
	f, _ := newSB(t, 1)
	tbl := NewServiceTable(f)
	s1 := tbl.Register("svc", func(n *fabric.Node, req []byte) []byte { return []byte("v1") })
	tbl.Call(f.Node(0), "svc", nil)
	s2 := tbl.Register("svc", func(n *fabric.Node, req []byte) []byte { return []byte("v2") })
	if s1 != s2 {
		t.Fatal("re-register must keep the shared context descriptor")
	}
	resp, _ := tbl.Call(f.Node(0), "svc", nil)
	if string(resp) != "v2" {
		t.Fatalf("resp = %q", resp)
	}
	if s2.Activations(f.Node(0)) != 2 {
		t.Fatalf("activations across upgrade = %d", s2.Activations(f.Node(0)))
	}
}
