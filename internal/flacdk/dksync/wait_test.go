package dksync

import (
	"testing"

	"flacos/internal/fabric"
)

// TestLockWaitMatchesItsLoop: node 1 holds the lock while node 0 locks it.
// Through k failed CAS attempts Lock charges node 0 exactly what the loop
// it replaced charged (its backoff only yielded the host CPU, which
// charges nothing), with node 1's Unlock scripted at the k-th.
func TestLockWaitMatchesItsLoop(t *testing.T) {
	build := func() (SpinLock, *fabric.Node, *fabric.Node) {
		f := fabric.New(fabric.Config{GlobalSize: 1 << 20, Nodes: 2, Latency: fabric.DefaultLatency()})
		l := NewSpinLock(f)
		l.Lock(f.Node(1))
		return l, f.Node(0), f.Node(1)
	}
	for _, k := range []int{1, 3, 8} {
		l, n0, n1 := build()
		polls := 0
		n0.SetOpHook(func(kind fabric.OpKind, _, _ uint64) {
			if kind == fabric.OpAwait {
				if polls++; polls == k {
					l.Unlock(n1)
				}
			}
		})
		before := n0.Stats()
		l.Lock(n0)
		n0.SetOpHook(nil)
		got := n0.Stats().Delta(before)
		if polls != k {
			t.Fatalf("Lock failed %d polls, want the scripted %d", polls, k)
		}

		rl, r0, r1 := build()
		before = r0.Stats()
		for i := 1; !r0.CAS64(rl.g, 0, uint64(r0.ID())+1); i++ {
			if i == k {
				rl.Unlock(r1)
			}
		}
		if want := r0.Stats().Delta(before); got != want || got.VirtualNS == 0 {
			t.Fatalf("after %d failed polls Lock charged\n  %+v\nthe loop it replaced\n  %+v", k, got, want)
		}
	}
}
