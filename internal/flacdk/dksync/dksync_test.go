package dksync

import (
	"sync"
	"testing"

	"flacos/internal/fabric"
)

func rack(t *testing.T, nodes int) *fabric.Fabric {
	t.Helper()
	return fabric.New(fabric.Config{GlobalSize: 1 << 20, Nodes: nodes})
}

func TestSpinLockMutualExclusionAcrossNodes(t *testing.T) {
	f := rack(t, 4)
	r := NewLockedRegion(f, 8)
	const perNode = 200
	var wg sync.WaitGroup
	for i := 0; i < f.NumNodes(); i++ {
		wg.Add(1)
		go func(n *fabric.Node) {
			defer wg.Done()
			for j := 0; j < perNode; j++ {
				r.Do(n, func() {
					v := n.Load64(r.Data)
					n.Store64(r.Data, v+1)
				})
			}
		}(f.Node(i))
	}
	wg.Wait()
	n := f.Node(0)
	var got uint64
	r.DoRead(n, func() { got = n.Load64(r.Data) })
	if got != uint64(f.NumNodes()*perNode) {
		t.Fatalf("counter = %d, want %d (lost updates => broken exclusion or cache discipline)",
			got, f.NumNodes()*perNode)
	}
}

func TestSpinLockUnlockByNonOwnerPanics(t *testing.T) {
	f := rack(t, 2)
	l := NewSpinLock(f)
	l.Lock(f.Node(0))
	defer func() {
		if recover() == nil {
			t.Fatal("Unlock by non-owner should panic")
		}
		l.Unlock(f.Node(0))
	}()
	l.Unlock(f.Node(1))
}

func TestLockedRegionPublishesAcrossNodes(t *testing.T) {
	f := rack(t, 2)
	r := NewLockedRegion(f, 128)
	a, b := f.Node(0), f.Node(1)
	r.Do(a, func() {
		buf := make([]byte, 128)
		for i := range buf {
			buf[i] = byte(i)
		}
		a.Write(r.Data, buf)
	})
	var got []byte
	r.DoRead(b, func() {
		got = make([]byte, 128)
		b.Read(r.Data, got)
	})
	for i, v := range got {
		if v != byte(i) {
			t.Fatalf("byte %d = %d", i, v)
		}
	}
}
