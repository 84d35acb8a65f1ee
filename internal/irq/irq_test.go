package irq

import (
	"sync"
	"testing"
	"time"

	"flacos/internal/fabric"
)

func rack(t *testing.T, nodes int) *fabric.Fabric {
	t.Helper()
	return fabric.New(fabric.Config{GlobalSize: 8 << 20, Nodes: nodes})
}

func TestIPIDeliveryAcrossNodes(t *testing.T) {
	f := rack(t, 2)
	c := NewController(f, f.Node(0), 0)
	var got struct {
		from int
		v    Vector
		arg  uint64
	}
	c.Register(1, 7, func(from int, v Vector, arg uint64) {
		got.from, got.v, got.arg = from, v, arg
	})
	if err := c.SendIPI(f.Node(0), 1, 7, 0xabcd); err != nil {
		t.Fatal(err)
	}
	if n := c.DispatchOnce(f.Node(1)); n != 1 {
		t.Fatalf("dispatched %d", n)
	}
	if got.from != 0 || got.v != 7 || got.arg != 0xabcd {
		t.Fatalf("got %+v", got)
	}
	sent, delivered, spurious := c.Stats()
	if sent != 1 || delivered != 1 || spurious != 0 {
		t.Fatalf("stats %d/%d/%d", sent, delivered, spurious)
	}
}

func TestIPIUnregisteredVectorIsSpurious(t *testing.T) {
	f := rack(t, 2)
	c := NewController(f, f.Node(0), 0)
	c.SendIPI(f.Node(0), 1, 99, 0)
	if n := c.DispatchOnce(f.Node(1)); n != 0 {
		t.Fatalf("handled %d", n)
	}
	if _, _, spurious := c.Stats(); spurious != 1 {
		t.Fatal("spurious not counted")
	}
}

func TestIPIBadTarget(t *testing.T) {
	f := rack(t, 2)
	c := NewController(f, f.Node(0), 0)
	if err := c.SendIPI(f.Node(0), 5, 1, 0); err == nil {
		t.Fatal("bad target should fail")
	}
}

func TestMWaitWakesOnNotify(t *testing.T) {
	f := rack(t, 2)
	g := f.Reserve(fabric.LineSize, fabric.LineSize)
	var wg sync.WaitGroup
	wg.Add(1)
	var got uint64
	var ok bool
	go func() {
		defer wg.Done()
		got, ok = MWait(f.Node(1), g, 0, 5*time.Second)
	}()
	time.Sleep(5 * time.Millisecond)
	Notify(f.Node(0), g, 42)
	wg.Wait()
	if !ok || got != 42 {
		t.Fatalf("mwait = %d,%v", got, ok)
	}
}

func TestMWaitTimeout(t *testing.T) {
	f := rack(t, 1)
	g := f.Reserve(fabric.LineSize, fabric.LineSize)
	start := time.Now()
	_, ok := MWait(f.Node(0), g, 0, 20*time.Millisecond)
	if ok {
		t.Fatal("mwait should time out")
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("returned before timeout")
	}
}

func TestRouterBalancesAcrossNodes(t *testing.T) {
	f := rack(t, 4)
	c := NewController(f, f.Node(0), 64)
	for n := 0; n < 4; n++ {
		c.Register(n, 1, func(from int, v Vector, arg uint64) {})
	}
	r := NewRouter(c)
	counts := make([]int, 4)
	for i := 0; i < 16; i++ {
		node, err := r.RouteExternal(f.Node(0), 1, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		counts[node]++
	}
	for n, ct := range counts {
		if ct != 4 {
			t.Fatalf("node %d got %d of 16 interrupts (want balanced): %v", n, ct, counts)
		}
	}
	// Completion feedback shifts routing toward drained nodes.
	for i := 0; i < 4; i++ {
		r.Complete(2)
	}
	node, _ := r.RouteExternal(f.Node(0), 1, 0)
	if node != 2 {
		t.Fatalf("routed to %d, want drained node 2 (pending %v)", node, r.Pending())
	}
}
