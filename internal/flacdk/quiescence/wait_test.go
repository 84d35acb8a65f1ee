package quiescence

import (
	"testing"

	"flacos/internal/fabric"
)

// TestBarrierWaitMatchesItsLoop: node 1 holds a read section open while
// node 0 runs a Barrier. Through k failed polls (each one fresh read of
// the domain block, its advance refused) the Barrier charges node 0
// exactly what the loop it replaced charged — one fresh read, plus the
// CAS when it lands, per poll — with node 1's Exit scripted at the k-th.
func TestBarrierWaitMatchesItsLoop(t *testing.T) {
	build := func() (p0, p1 *Participant) {
		f := fabric.New(fabric.Config{GlobalSize: 8 << 20, Nodes: 2, Latency: fabric.DefaultLatency()})
		d := NewDomain(f, 2)
		p0, p1 = d.Participant(f.Node(0), 0), d.Participant(f.Node(1), 1)
		p1.Enter()
		return p0, p1
	}
	for _, k := range []int{1, 3, 8} {
		p0, p1 := build()
		polls := 0
		p0.n.SetOpHook(func(kind fabric.OpKind, _, _ uint64) {
			if kind == fabric.OpAwait {
				if polls++; polls == k {
					p1.Exit()
				}
			}
		})
		before := p0.n.Stats()
		p0.Barrier()
		p0.n.SetOpHook(nil)
		got := p0.n.Stats().Delta(before)
		if polls != k {
			t.Fatalf("Barrier failed %d polls, want the scripted %d", polls, k)
		}

		r0, r1 := build()
		before = r0.n.Stats()
		start := r0.epoch()
		for i := 0; ; {
			e, ok := r0.advance()
			if e >= start+2 {
				break
			}
			if !ok {
				if i++; i == k {
					r1.Exit()
				}
			}
		}
		r0.Collect()
		if want := r0.n.Stats().Delta(before); got != want || got.VirtualNS == 0 {
			t.Fatalf("after %d failed polls Barrier charged\n  %+v\nthe loop it replaced\n  %+v", k, got, want)
		}
	}
}
