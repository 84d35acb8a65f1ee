package sched

import (
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

// schedWaitRig is one of sched's wait sites on a fresh, never started
// scheduler: wait runs the site, poll is one pass of the hand-written loop
// it replaced (true when done), and release is node 1's move that ends the
// wait.
type schedWaitRig struct {
	n       *fabric.Node
	wait    func()
	poll    func() bool
	release func()
}

// free ends slot's task from node 1: the completion's Free(g+1) word.
func free(s *Scheduler, slot uint64) {
	n := s.fab.Node(1)
	w := slotWord(n.AtomicLoad64(s.stateG(slot)))
	n.AtomicStore64(s.stateG(slot), uint64(ds.PackState(w.Gen()+1, 0, 0, stFree)))
}

// TestSchedWaitsMatchTheirLoops runs each wait site through k failed polls,
// and the loop it replaced through the same script, and requires the
// waiter's counters, virtual ns among them, to match. k = 70 takes Wait's
// and Drain's host sleeps, which charge nothing.
func TestSchedWaitsMatchTheirLoops(t *testing.T) {
	newSched := func() *Scheduler {
		f := fabric.New(fabric.Config{GlobalSize: 16 << 20, Nodes: 2, CacheCapacityLines: -1, Latency: fabric.DefaultLatency()})
		return New(f, Config{TableCap: 4})
	}
	sites := map[string]func() schedWaitRig{
		"allocSlot": func() schedWaitRig {
			s := newSched()
			n := s.fab.Node(0)
			for i := 0; i < 4; i++ {
				s.Submit(n, Task{Preferred: -1})
			}
			return schedWaitRig{n: n, wait: func() { s.allocSlot(n) },
				poll: func() bool {
					start := s.allocCursor.Add(1)
					for k := uint64(0); k < s.cfg.TableCap; k++ {
						i := (start + k) % s.cfg.TableCap
						w := slotWord(n.AtomicLoad64(s.stateG(i)))
						if w.State() != stFree {
							continue
						}
						if n.CAS64(s.stateG(i), uint64(w), uint64(ds.PackState(w.Gen()+1, 0, n.ID(), stInit))) {
							return true
						}
					}
					return false
				},
				release: func() { free(s, 2) }}
		},
		"Wait": func() schedWaitRig {
			s := newSched()
			n := s.fab.Node(0)
			h := s.Submit(n, Task{Preferred: -1})
			return schedWaitRig{n: n, wait: func() { s.Wait(n, h) },
				poll: func() bool {
					if slotWord(n.AtomicLoad64(s.stateG(h.Slot))).Gen() > h.Gen {
						return true
					}
					select {
					case <-s.stop:
						return true
					default:
						return false
					}
				},
				release: func() { free(s, h.Slot) }}
		},
		"Drain": func() schedWaitRig {
			s := newSched()
			n := s.fab.Node(0)
			s.Submit(n, Task{Preferred: -1})
			s.Submit(n, Task{Preferred: -1})
			busy := uint64(0)
			return schedWaitRig{n: n, wait: func() { s.Drain(n) },
				poll: func() bool {
					k := uint64(0)
					for ; k < s.cfg.TableCap; k++ {
						if slotWord(n.AtomicLoad64(s.stateG(busy))).State() != stFree {
							break
						}
						busy = (busy + 1) % s.cfg.TableCap
					}
					return k == s.cfg.TableCap
				},
				release: func() {
					for i := uint64(0); i < s.cfg.TableCap; i++ {
						if slotWord(s.fab.Node(1).AtomicLoad64(s.stateG(i))).State() != stFree {
							free(s, i)
						}
					}
				}}
		},
	}
	for name, build := range sites {
		t.Run(name, func(t *testing.T) {
			for _, k := range []int{1, 3, 70} {
				site := build()
				polls := releaseAt(site.n, k, site.release)
				before := site.n.Stats()
				site.wait()
				got := site.n.Stats().Delta(before)
				if *polls != k {
					t.Fatalf("the site failed %d polls, want the scripted %d", *polls, k)
				}
				ref := build()
				before = ref.n.Stats()
				for i := 1; !ref.poll(); i++ {
					if i == k {
						ref.release()
					}
				}
				if want := ref.n.Stats().Delta(before); got != want || got.VirtualNS == 0 {
					t.Fatalf("after %d failed polls the site charged\n  %+v\nthe loop it replaced\n  %+v", k, got, want)
				}
			}
		})
	}
}

func TestWaitOnACompletedHandleAllocatesNothing(t *testing.T) {
	f := testFabric(2)
	s := testSched(t, f, Config{})
	fn := s.Register(func(*fabric.Node, uint64, uint64) {})
	s.Start()
	n := f.Node(0)
	h := s.Submit(n, Task{Fn: fn, Preferred: -1})
	if !s.Wait(n, h) {
		t.Fatal("Wait aborted")
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Wait(n, h) }); allocs != 0 {
		t.Fatalf("Wait on a completed handle allocates %v times, want 0", allocs)
	}
}

// stallAfterTicket pushes msg onto ring from node n on its own goroutine
// and holds that producer at its payload's write-back: after the tail CAS
// that took its ticket, before the slot is published. It returns once the
// ticket is taken; calling the returned func lets the producer publish
// and waits for it.
func stallAfterTicket(ring *ds.MPSCRing, n *fabric.Node, msg []byte) (publish func()) {
	held, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	n.SetOpHook(func(kind fabric.OpKind, _, _ uint64) {
		if kind == fabric.OpWriteBackRange {
			n.SetOpHook(nil)
			close(held)
			<-release
		}
	})
	go func() {
		defer close(done)
		ring.TryPush(n, msg)
	}()
	<-held
	return func() { close(release); <-done }
}

// TestDeadInboxProducerStrandsNoTask scripts a producer that takes a
// ticket on node 1's inbox with the ring's tail CAS and does not publish
// it before the scheduler stops. The inbox's consumer stops at that slot for good, so
// every later announcement to node 1 is lost behind it, the ring fills,
// and Submit's best-effort push fails; each task preferred at node 1
// still completes, claimed by a table scan on a steal tick.
func TestDeadInboxProducerStrandsNoTask(t *testing.T) {
	f := testFabric(2)
	s := testSched(t, f, Config{Policy: PolicyLocality, StealGrace: time.Hour})
	done := f.Reserve(8, fabric.LineSize)
	fn := s.Register(func(n *fabric.Node, arg0, _ uint64) { n.Add64(fabric.GPtr(arg0), 1) })
	n := f.Node(0)
	publish := stallAfterTicket(s.inboxes[1], n, make([]byte, 8))
	s.Start()
	const tasks = inboxCap + 8 // enough to fill the wedged ring
	var hs []Handle
	for i := 0; i < tasks; i++ {
		hs = append(hs, s.Submit(n, Task{Fn: fn, Arg0: uint64(done), Preferred: 1}))
	}
	for _, h := range hs {
		if !s.Wait(n, h) {
			t.Fatal("Wait aborted")
		}
	}
	// Execution is at-least-once (a lease that expires under a slow host
	// runs a task again), so only a count below tasks is a lost task.
	if got := n.AtomicLoad64(done); got < tasks {
		t.Fatalf("%d of %d tasks preferred at the wedged node ran", got, tasks)
	}
	var buf [8]byte
	if _, ok := s.inboxes[1].TryPop(f.Node(1), buf[:]); ok {
		t.Fatal("the inbox moved past the unpublished ticket")
	}
	s.Stop()
	publish()
}
