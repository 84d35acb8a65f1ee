package ds

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"

	"flacos/internal/histcheck"
)

// Linearizability tests for the fabric rings: producers and consumers on
// different nodes record PUSH/POP histories through histcheck's Recorder
// and the checker decides whether the rings really are the linearizable
// FIFO queues the IPC layer assumes — the history-test counterpart of
// the torture harness's probabilistic ring sweeps.

// TestSPSCRingHistoryLinearizable runs the producer and consumer on
// different nodes and checks the recorded history against the FIFO
// queue model, including TryPop misses.
func TestSPSCRingHistoryLinearizable(t *testing.T) {
	const msgs = 500
	f := rack(t, 2, 4)
	r := NewSPSCRing(f, 64, 16)
	rec := histcheck.NewRecorder()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		n := f.Node(0)
		buf := make([]byte, 8)
		for v := uint64(1); v <= msgs; v++ {
			binary.LittleEndian.PutUint64(buf, v)
			p := rec.Begin(0, histcheck.QueueInput{Op: histcheck.QueuePush, Val: v})
			r.Push(n, buf)
			p.End(histcheck.QueueOutput{})
		}
	}()
	go func() {
		defer wg.Done()
		n := f.Node(1)
		buf := make([]byte, 16)
		// SPSC emptiness IS linearizable (TryPop compares the head
		// against an atomic load of the published tail), so misses are
		// recorded too — throttled, or the spin loop would swamp the
		// history. Dropping operations is sound: any sub-history of a
		// linearizable history is linearizable.
		misses := 0
		for got := 0; got < msgs; {
			p := rec.Begin(1, histcheck.QueueInput{Op: histcheck.QueuePop})
			ln, ok := r.TryPop(n, buf)
			if !ok {
				if misses%128 == 0 {
					p.End(histcheck.QueueOutput{})
				}
				misses++
				continue
			}
			if ln != 8 {
				t.Errorf("pop returned %d bytes, want 8", ln)
				return
			}
			p.End(histcheck.QueueOutput{Val: binary.LittleEndian.Uint64(buf), OK: true})
			got++
		}
	}()
	wg.Wait()
	if res := histcheck.Check(histcheck.QueueModel(), rec.Operations()); !res.Ok {
		t.Fatal(res.Info)
	}
}

// TestMPSCRingHistoryLinearizable fans three producers on different
// nodes into one consumer; values are globally unique so the checker
// pins every pop to its push.
func TestMPSCRingHistoryLinearizable(t *testing.T) {
	// Sized so the race-instrumented WGL search stays in CI budget: the
	// checker's cost is in the per-window interleavings, not the volume.
	// The ring's capacity bounds how far the consumer can lag the
	// producers, and so how many choice points later a wrong guess at the
	// order of concurrent pushes is refuted by a pop: with 32 slots the
	// backtracking over three producers did not finish on a 2-core host
	// about one run in four. Four slots keep the lag at 4 pushes and wrap
	// the ring eight times as often.
	const producers = 3
	each := 80
	if raceEnabled {
		each = 25
	}
	f := rack(t, 4, 4)
	r := NewMPSCRing(f, f.Node(0), 4, 16)
	rec := histcheck.NewRecorder()

	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			n := f.Node(pr)
			buf := make([]byte, 8)
			for i := 0; i < each; i++ {
				v := uint64(pr)*1_000_000 + uint64(i) + 1
				binary.LittleEndian.PutUint64(buf, v)
				p := rec.Begin(pr, histcheck.QueueInput{Op: histcheck.QueuePush, Val: v})
				r.Push(n, buf)
				p.End(histcheck.QueueOutput{})
			}
		}(pr)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := f.Node(producers)
		buf := make([]byte, 16)
		// MPSC emptiness is deliberately NOT recorded: in a Vyukov-style
		// ring a producer that claimed ticket t but has not yet published
		// hides every later completed push from the consumer, so "empty"
		// can be reported after another push already returned — correct
		// ring behavior, but not linearizable as a queue observation. The
		// push/pop sub-history is linearizable, and that is the contract
		// the IPC layer relies on.
		for got := 0; got < producers*each; {
			p := rec.Begin(producers, histcheck.QueueInput{Op: histcheck.QueuePop})
			ln, ok := r.TryPop(n, buf)
			if !ok {
				runtime.Gosched()
				continue
			}
			if ln != 8 {
				t.Errorf("pop returned %d bytes, want 8", ln)
				return
			}
			p.End(histcheck.QueueOutput{Val: binary.LittleEndian.Uint64(buf), OK: true})
			got++
		}
	}()
	wg.Wait()
	if res := histcheck.Check(histcheck.QueueModel(), rec.Operations()); !res.Ok {
		t.Fatal(res.Info)
	}
}
