package netstack

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"flacos/internal/fabric"
)

func rack(t *testing.T) *fabric.Fabric {
	t.Helper()
	return fabric.New(fabric.Config{
		GlobalSize: 1 << 20,
		Nodes:      2,
		Latency:    fabric.LatencyModel{Mode: fabric.LatencyAccount},
	})
}

func TestDialSendRecv(t *testing.T) {
	f := rack(t)
	nw := New(DefaultTCP())
	l, err := nw.Listen(f.Node(0), "10.0.0.1:6379")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 4096)
		for {
			n, err := c.Recv(buf)
			if err != nil {
				return
			}
			c.Send(buf[:n])
		}
	}()
	c, err := nw.Dial(f.Node(1), "10.0.0.1:6379")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("PING over simulated ethernet")
	if err := c.Send(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := c.Recv(buf)
	if err != nil || !bytes.Equal(buf[:n], msg) {
		t.Fatalf("echo = %q, %v", buf[:n], err)
	}
	c.Close()
	wg.Wait()
	l.Close()
}

func TestDialRefusedAndAddressInUse(t *testing.T) {
	f := rack(t)
	nw := New(DefaultTCP())
	if _, err := nw.Dial(f.Node(0), "1.2.3.4:80"); err == nil {
		t.Fatal("dial with no listener should fail")
	}
	l, _ := nw.Listen(f.Node(0), "a:1")
	if _, err := nw.Listen(f.Node(1), "a:1"); err == nil {
		t.Fatal("double listen should fail")
	}
	l.Close()
	if _, err := nw.Listen(f.Node(1), "a:1"); err != nil {
		t.Fatalf("listen after close: %v", err)
	}
}

func TestCloseSemantics(t *testing.T) {
	f := rack(t)
	nw := New(DefaultTCP())
	l, _ := nw.Listen(f.Node(0), "s:1")
	var srv *Conn
	done := make(chan struct{})
	go func() {
		srv, _ = l.Accept()
		close(done)
	}()
	c, err := nw.Dial(f.Node(1), "s:1")
	if err != nil {
		t.Fatal(err)
	}
	<-done
	// In-flight data survives a close issued after the send.
	c.Send([]byte("last words"))
	c.Close()
	buf := make([]byte, 64)
	n, err := srv.Recv(buf)
	if err != nil || string(buf[:n]) != "last words" {
		t.Fatalf("drain after close = %q, %v", buf[:n], err)
	}
	if _, err := srv.Recv(buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv on closed = %v", err)
	}
	if err := srv.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on closed = %v", err)
	}
	c.Close() // idempotent
}

func TestCostModelCharges(t *testing.T) {
	f := rack(t)
	cfg := DefaultTCP()
	nw := New(cfg)
	l, _ := nw.Listen(f.Node(0), "c:1")
	go func() {
		c, _ := l.Accept()
		buf := make([]byte, 8192)
		for {
			if _, err := c.Recv(buf); err != nil {
				return
			}
		}
	}()
	c, _ := nw.Dial(f.Node(1), "c:1")
	defer c.Close()

	before := f.Node(1).VirtualNS()
	c.Send(make([]byte, 64))
	small := f.Node(1).VirtualNS() - before

	before = f.Node(1).VirtualNS()
	c.Send(make([]byte, 60000)) // 40 MTU-sized packets
	large := f.Node(1).VirtualNS() - before

	if small == 0 || large <= small {
		t.Fatalf("send costs: small=%d large=%d", small, large)
	}
	// Per-packet stack cost must dominate the large send's growth.
	if large < uint64(35*cfg.StackProcessNS) {
		t.Fatalf("large send %dns under-charges packetization", large)
	}
}

func TestRecvBufferTooSmall(t *testing.T) {
	f := rack(t)
	nw := New(DefaultTCP())
	l, _ := nw.Listen(f.Node(0), "b:1")
	var srv *Conn
	done := make(chan struct{})
	go func() { srv, _ = l.Accept(); close(done) }()
	c, _ := nw.Dial(f.Node(1), "b:1")
	defer c.Close()
	<-done
	c.Send(make([]byte, 128))
	if _, err := srv.Recv(make([]byte, 16)); err == nil {
		t.Fatal("undersized recv buffer should error")
	}
}

func TestRDMAOneSided(t *testing.T) {
	f := rack(t)
	r := NewRDMA(DefaultRDMA())
	mr := NewMemoryRegion(4096)
	init := f.Node(1) // initiator
	data := bytes.Repeat([]byte{0x3C}, 1024)
	if err := r.Write(init, mr, 100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1024)
	if err := r.Read(init, mr, 100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("rdma round trip mismatch")
	}
	// Bounds.
	if err := r.Write(init, mr, 4000, make([]byte, 200)); err == nil {
		t.Fatal("out-of-region write should fail")
	}
	if err := r.Read(init, mr, 4000, make([]byte, 200)); err == nil {
		t.Fatal("out-of-region read should fail")
	}
	if init.VirtualNS() == 0 {
		t.Fatal("rdma ops charged nothing")
	}
}

func TestTCPCostExceedsRDMACost(t *testing.T) {
	tcp, rdma := DefaultTCP(), DefaultRDMA()
	for _, size := range []int{64, 4096, 65536} {
		t1 := tcp.sendCost(size) + tcp.recvCost(size)
		t2 := rdma.sendCost(size) + rdma.WireLatencyNS
		if t2 >= t1 {
			t.Fatalf("size %d: rdma %dns !< tcp %dns", size, t2, t1)
		}
	}
}
