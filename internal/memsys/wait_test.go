package memsys

import (
	"testing"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/alloc"
)

// oldTranslateMiss is translate's TLB-miss loop as it was written before
// its busy-page wait moved onto Node.Await, with the i-th pass that found
// the page busy calling script(i).
func oldTranslateMiss(m *MMU, vpn uint64, write bool, script func(i int)) (PTE, error) {
	m.stats.TLBMisses.Add(1)
	for i := 1; ; {
		gen := m.tlb.gen.Load()
		p := PTE(m.space.pt.Get(m.node, vpn))
		switch {
		case !p.Valid():
			var err error
			if p, err = m.demandFault(vpn); err != nil {
				return 0, err
			}
			continue
		case p.Busy():
			script(i)
			i++
			continue
		case write && p.COW():
			m.breakCOW(vpn, p)
			continue
		case write && !p.Writable():
			return 0, &MapError{Op: "write", VA: vpn << PageShift, Why: "read-only mapping"}
		case !p.Global() && m.nodeOf(p) != m.node.ID():
			m.migrateToGlobal(vpn, p)
			continue
		default:
			m.tlb.put(vpn, p, gen)
			m.sample(vpn, write)
			return p, nil
		}
	}
}

// TestTranslateBusyWaitMatchesItsLoop: node 1 holds a mapped page busy
// (mid-move) while node 0 misses its TLB on it. Through k failed polls the
// translation charges node 0 exactly what the loop it replaced charged.
func TestTranslateBusyWaitMatchesItsLoop(t *testing.T) {
	const va = 0x40000
	build := func() (m0 *MMU, release func()) {
		f := fabric.New(fabric.Config{GlobalSize: 48 << 20, Nodes: 2, Latency: fabric.DefaultLatency()})
		e := &env{fab: f, frames: NewGlobalFrames(f, 2048), arena: alloc.NewArena(f, 24<<20)}
		s := e.space(1)
		m0, m1 := e.attach(s, 0), e.attach(s, 1)
		if err := m1.MMap(va, 1, ProtRead|ProtWrite, BackGlobal); err != nil {
			t.Fatal(err)
		}
		if err := m1.Write(va, []byte("resident")); err != nil {
			t.Fatal(err)
		}
		n1, vpn := f.Node(1), uint64(va>>PageShift)
		old := s.pt.Get(n1, vpn)
		if !s.pt.CompareAndSwap(n1, m1.pta, vpn, old, uint64(PTE(old)|PteBusy)) {
			t.Fatal("could not mark the page busy")
		}
		return m0, func() { s.pt.CompareAndSwap(n1, m1.pta, vpn, uint64(PTE(old)|PteBusy), old) }
	}
	for _, k := range []int{1, 3, 8} {
		m, release := build()
		polls := releaseAt(m.node, k, release)
		before := m.node.Stats()
		got, err := m.translate(va>>PageShift, false)
		m.node.SetOpHook(nil)
		gotStats := m.node.Stats().Delta(before)
		if err != nil || *polls != k {
			t.Fatalf("translate: %v after %d failed polls, want the scripted %d", err, *polls, k)
		}
		ref, release := build()
		before = ref.node.Stats()
		want, err := oldTranslateMiss(ref, va>>PageShift, false, func(i int) {
			if i == k {
				release()
			}
		})
		if wantStats := ref.node.Stats().Delta(before); err != nil || got != want || gotStats != wantStats {
			t.Fatalf("after %d failed polls translate gave %v and charged\n  %+v\nthe loop it replaced %v (%v) and\n  %+v", k, got, gotStats, want, err, wantStats)
		}
	}
}

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
