package delegation

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"flacos/internal/fabric"
)

func rack(t *testing.T, nodes int) *fabric.Fabric {
	t.Helper()
	return fabric.New(fabric.Config{GlobalSize: 4 << 20, Nodes: nodes})
}

// serve runs the owner's ServeOnce sweeps on node n in a goroutine until
// the returned stop function is called; stop returns once it has exited.
func serve(d *Domain, n *fabric.Node, handler Handler) (stop func()) {
	sv := d.Server(n, handler)
	var quit atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !quit.Load() {
			if sv.ServeOnce() == 0 {
				runtime.Gosched()
			}
		}
	}()
	return func() {
		quit.Store(true)
		<-done
	}
}

func TestEchoAcrossNodes(t *testing.T) {
	f := rack(t, 2)
	d := NewDomain(f, 1)
	stop := serve(d, f.Node(0), func(op uint32, req, resp []byte) (int, uint32) {
		return copy(resp, req), op * 2
	})
	defer stop()
	c := d.Client(f.Node(1), 0)
	resp := make([]byte, PayloadMax)
	n, status := c.Call(21, []byte("hello delegation"), resp)
	if string(resp[:n]) != "hello delegation" || status != 42 {
		t.Fatalf("echo = %q status %d", resp[:n], status)
	}
}

func TestDelegatedCounterExactUnderConcurrency(t *testing.T) {
	// The owner keeps the counter in plain local memory — no atomics, no
	// locks, no cache maintenance on the data — and it still counts exactly,
	// because delegation serializes all access through the owner.
	const clients, perClient = 4, 500
	f := rack(t, 2)
	d := NewDomain(f, clients)
	var counter uint64 // owner-local state
	stop := serve(d, f.Node(0), func(op uint32, req, resp []byte) (int, uint32) {
		counter += uint64(op)
		binary.LittleEndian.PutUint64(resp, counter)
		return 8, 0
	})
	var cwg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cwg.Add(1)
		go func(slot int) {
			defer cwg.Done()
			c := d.Client(f.Node(1), slot)
			resp := make([]byte, PayloadMax)
			for j := 0; j < perClient; j++ {
				c.Call(1, nil, resp)
			}
		}(i)
	}
	cwg.Wait()
	stop()
	if counter != clients*perClient {
		t.Fatalf("counter = %d, want %d", counter, clients*perClient)
	}
}

func TestDelegatedMapPartition(t *testing.T) {
	f := rack(t, 3)
	d := NewDomain(f, 2)
	m := map[string]string{} // owner-local partition
	stop := serve(d, f.Node(0), func(op uint32, req, resp []byte) (int, uint32) {
		switch op {
		case 1: // put: klen byte, key, value
			klen := int(req[0])
			m[string(req[1:1+klen])] = string(req[1+klen:])
			return 0, 0
		case 2: // get: key
			v, ok := m[string(req)]
			if !ok {
				return 0, 1
			}
			return copy(resp, v), 0
		}
		return 0, 2
	})
	defer stop()
	put := func(c *Client, k, v string) {
		req := append([]byte{byte(len(k))}, k...)
		req = append(req, v...)
		c.Call(1, req, make([]byte, PayloadMax))
	}
	c1 := d.Client(f.Node(1), 0)
	c2 := d.Client(f.Node(2), 1)
	put(c1, "k1", "from-node-1")
	put(c2, "k2", "from-node-2")
	resp := make([]byte, PayloadMax)
	n, st := c2.Call(2, []byte("k1"), resp)
	if st != 0 || string(resp[:n]) != "from-node-1" {
		t.Fatalf("get k1 = %q st %d", resp[:n], st)
	}
	n, st = c1.Call(2, []byte("missing"), resp)
	if st != 1 || n != 0 {
		t.Fatalf("get missing: n=%d st=%d", n, st)
	}
}

func TestClientSlotBounds(t *testing.T) {
	f := rack(t, 1)
	d := NewDomain(f, 2)
	for _, slot := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("slot %d should panic", slot)
				}
			}()
			d.Client(f.Node(0), slot)
		}()
	}
}

func TestOversizedRequestPanics(t *testing.T) {
	f := rack(t, 1)
	d := NewDomain(f, 1)
	c := d.Client(f.Node(0), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized request should panic")
		}
	}()
	c.Call(1, make([]byte, PayloadMax+1), nil)
}

func TestZeroSlotDomainPanics(t *testing.T) {
	f := rack(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("NewDomain(0) should panic")
		}
	}()
	NewDomain(f, 0)
}

func TestManySequentialCallsSameSlot(t *testing.T) {
	f := rack(t, 2)
	d := NewDomain(f, 1)
	stop := serve(d, f.Node(0), func(op uint32, req, resp []byte) (int, uint32) {
		return copy(resp, fmt.Sprintf("r%d", op)), 0
	})
	defer stop()
	c := d.Client(f.Node(1), 0)
	resp := make([]byte, PayloadMax)
	for i := uint32(0); i < 200; i++ {
		n, _ := c.Call(i, nil, resp)
		if string(resp[:n]) != fmt.Sprintf("r%d", i) {
			t.Fatalf("call %d got %q", i, resp[:n])
		}
	}
}
