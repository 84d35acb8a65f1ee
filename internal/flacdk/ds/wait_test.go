package ds

import (
	"testing"

	"flacos/internal/fabric"
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

// waitRig is one converted wait site on a fresh rack: wait runs the site,
// poll is one pass of the hand-written loop it replaced (true when done),
// and release is another node's move that ends the wait.
type waitRig struct {
	n       *fabric.Node
	wait    func()
	poll    func() bool
	release func()
}

// checkWaitSite runs build's site through k failed polls, and the
// hand-written loop through the same script, each on its own fresh rack,
// and requires the waiter's counters — virtual ns among them — to match.
func checkWaitSite(t *testing.T, k int, build func() waitRig) {
	t.Helper()
	site := build()
	polls := releaseAt(site.n, k, site.release)
	before := site.n.Stats()
	site.wait()
	site.n.SetOpHook(nil)
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
	want := ref.n.Stats().Delta(before)
	if got != want || got.VirtualNS == 0 {
		t.Fatalf("after %d failed polls the site charged\n  %+v\nthe loop it replaced\n  %+v", k, got, want)
	}
}

func TestRingWaitsMatchTheirLoops(t *testing.T) {
	newRack := func() *fabric.Fabric {
		return fabric.New(fabric.Config{GlobalSize: 1 << 20, Nodes: 2, Latency: fabric.DefaultLatency()})
	}
	msg, buf := ringMsg(40, 7), make([]byte, 64)
	sites := map[string]func() waitRig{
		"SPSCRing.Push": func() waitRig {
			f := newRack()
			p, c := f.Node(0), f.Node(1)
			r := NewSPSCRing(f, 4, 64)
			for r.TryPush(p, msg) {
			}
			return waitRig{n: p, wait: func() { r.Push(p, msg) }, poll: func() bool { return r.TryPush(p, msg) },
				release: func() { r.TryPop(c, buf) }}
		},
		"SPSCRing.Pop": func() waitRig {
			f := newRack()
			p, c := f.Node(0), f.Node(1)
			r := NewSPSCRing(f, 4, 64)
			return waitRig{n: c, wait: func() { r.Pop(c, buf) }, poll: func() bool { _, ok := r.TryPop(c, buf); return ok },
				release: func() { r.TryPush(p, msg) }}
		},
		"MPSCRing.Push": func() waitRig {
			f := newRack()
			p, c := f.Node(0), f.Node(1)
			r := NewMPSCRing(f, c, 2, 64)
			for r.TryPush(p, msg) {
			}
			return waitRig{n: p, wait: func() { r.Push(p, msg) }, poll: func() bool { return r.TryPush(p, msg) },
				release: func() { r.TryPop(c, buf) }}
		},
	}
	for name, build := range sites {
		t.Run(name, func(t *testing.T) {
			for _, k := range []int{1, 3, 8} {
				checkWaitSite(t, k, build)
			}
		})
	}
}
