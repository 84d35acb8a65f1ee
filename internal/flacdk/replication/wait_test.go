package replication

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

// publish fills and publishes the entry at idx from node n, the second
// half of an Execute whose first half was a bare reservation.
func publish(l *Log, n *fabric.Node, idx uint64, op uint32, payload []byte) {
	ds.PublishRange(n, l.payloadG(idx), payload)
	n.AtomicStore64(l.metaG(idx), uint64(op)<<32|uint64(len(payload)))
	n.AtomicStore64(l.stateG(idx), idx+1)
}

func one() []byte {
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], 1)
	return p[:]
}

// oldExecute is Execute as it was written before its two waits moved onto
// Node.Await, with the i-th failed pass of either loop calling script(i).
func oldExecute(r *Replica, op uint32, payload []byte, script func(i int)) uint64 {
	l, n := r.log, r.node
	idx := n.Add64(l.tailG, 1) - 1
	for i := 1; idx >= l.minApplied(n)+l.capacity; i++ {
		r.Sync()
		script(i)
	}
	ds.PublishRange(n, l.payloadG(idx), payload)
	n.AtomicStore64(l.metaG(idx), uint64(op)<<32|uint64(len(payload)))
	n.AtomicStore64(l.stateG(idx), idx+1)
	target := idx + 1
	var result uint64
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.localApplied < target {
		idx := r.localApplied
		for i := 1; n.AtomicLoad64(l.stateG(idx)) != idx+1; i++ {
			script(i)
		}
		res := r.applyLocked(idx)
		if idx == target-1 {
			result = res
		}
	}
	return result
}

// TestExecuteWaitsMatchTheirLoops scripts k failed polls of each of
// Execute's waits, and of the loops they replaced, on fresh racks, and
// requires the appender's counters, virtual ns among them, to match.
func TestExecuteWaitsMatchTheirLoops(t *testing.T) {
	type rig struct {
		r       *Replica
		release func()
	}
	sites := map[string]func() rig{
		// node 0 reserved index 0 and has not published it yet.
		"syncUntil": func() rig {
			f := fabric.New(fabric.Config{GlobalSize: 4 << 20, Nodes: 2, Latency: fabric.DefaultLatency()})
			l := NewLog(f, 8)
			l.Replica(f.Node(0), &counterSM{})
			r1 := l.Replica(f.Node(1), &counterSM{})
			idx := f.Node(0).Add64(l.tailG, 1) - 1
			return rig{r: r1, release: func() { publish(l, f.Node(0), idx, 1, one()) }}
		},
		// node 0's replica has applied nothing of a full log.
		"Execute": func() rig {
			f := fabric.New(fabric.Config{GlobalSize: 4 << 20, Nodes: 2, Latency: fabric.DefaultLatency()})
			l := NewLog(f, 8)
			r0 := l.Replica(f.Node(0), &counterSM{})
			r1 := l.Replica(f.Node(1), &counterSM{})
			for i := 0; i < 8; i++ {
				r1.Execute(1, one())
			}
			return rig{r: r1, release: r0.Sync}
		},
	}
	for name, build := range sites {
		t.Run(name, func(t *testing.T) {
			for _, k := range []int{1, 3, 8} {
				site := build()
				n := site.r.node
				polls := releaseAt(n, k, site.release)
				before := n.Stats()
				got := site.r.Execute(1, one())
				n.SetOpHook(nil)
				gotStats := n.Stats().Delta(before)
				if *polls != k {
					t.Fatalf("the site failed %d polls, want the scripted %d", *polls, k)
				}
				ref := build()
				before = ref.r.node.Stats()
				want := oldExecute(ref.r, 1, one(), func(i int) {
					if i == k {
						ref.release()
					}
				})
				if wantStats := ref.r.node.Stats().Delta(before); got != want || gotStats != wantStats {
					t.Fatalf("after %d failed polls Execute returned %d and charged\n  %+v\nthe loops it replaced %d and\n  %+v", k, got, gotStats, want, wantStats)
				}
			}
		})
	}
}

// TestHoleIsNamedByTheWaitRecord scripts the replicated log's hole: node 0
// reserves an index with a bare Add64 on the tail and never publishes it.
// Every later Execute waits at that index; its open wait record names the
// site, the index, and the index's state word with the value 0 it keeps
// reading. Publishing the entry releases the waiter.
func TestHoleIsNamedByTheWaitRecord(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 4 << 20, Nodes: 2})
	l := NewLog(f, 8)
	r0 := l.Replica(f.Node(0), &counterSM{})
	r1 := l.Replica(f.Node(1), &counterSM{})
	r0.Execute(1, one())
	hole := f.Node(0).Add64(l.tailG, 1) - 1
	done := make(chan uint64)
	go func() { done <- r1.Execute(1, one()) }()

	var rec *fabric.WaitRecord
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if w := f.Node(1).Waits(); len(w) == 1 {
			rec = w[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no wait record opened within 5 s")
		}
	}
	if rec.Site != "replication.syncUntil" || rec.Arg != hole || rec.Word != l.stateG(hole) || rec.Last.Load() != 0 || rec.Node != 1 {
		t.Fatalf("record %v, want replication.syncUntil at index %d, word %v, last 0, node 1", rec, hole, l.stateG(hole))
	}
	select {
	case v := <-done:
		t.Fatalf("Execute returned %d past the hole", v)
	case <-time.After(10 * time.Millisecond):
	}
	publish(l, f.Node(0), hole, 1, one())
	select {
	case v := <-done:
		if v != 3 {
			t.Fatalf("Execute after the hole returned %d, want 3", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Execute still waiting 5 s after the hole was published")
	}
	if w := f.Node(1).Waits(); len(w) != 0 {
		t.Fatalf("open waits after Execute returned: %v", w)
	}
	r0.Sync()
	if a, b := r0.sm.(*counterSM).v, r1.sm.(*counterSM).v; a != 3 || b != 3 {
		t.Fatalf("replicas hold %d and %d, want 3 and 3", a, b)
	}
}
