package fabric

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"
)

// Wait names what a CPU of a node waits for. Every and Sleep are the one
// backoff a site may keep: with Every > 0, every Every-th pause sleeps
// Sleep of host time instead of yielding, so a long wait leaves room for
// the host's timer-driven goroutines (heartbeats, lease keepers).
type Wait struct {
	Site  string // the waiting function, "pkg.Func"
	Word  GPtr   // the one word the poll reads, or Nil
	Arg   uint64 // what the site waits for in its own terms (a log index, a slot)
	Every int
	Sleep time.Duration
}

// WaitRecord is one open wait: its node, the node's virtual ns at the
// first failed poll, and what the last failed poll saw (Word's value when
// the poll reads one).
type WaitRecord struct {
	Wait
	Node    int
	StartNS uint64
	Last    atomic.Uint64
}

func (r *WaitRecord) String() string {
	return fmt.Sprintf("node %d %s arg=%d word=%v last=%d since=%dns", r.Node, r.Site, r.Arg, r.Word, r.Last.Load(), r.StartNS)
}

// Await is the one way a CPU of n waits for another node: it calls poll
// until poll reports done, yielding the host CPU between polls. It charges
// no virtual time of its own, so a wait costs exactly its polls' fabric
// operations. From the first failed poll until Await returns, or a crash
// of n unwinds it, n's wait table holds w's record (Waits): simulator
// instrumentation, never read by modelled code. After each failed poll n's
// op hook sees OpAwait. A wait whose first poll succeeds allocates nothing,
// and a failed poll takes no lock.
func (n *Node) Await(w Wait, poll func() (last uint64, done bool)) {
	if last, done := poll(); !done {
		n.await(w, last, poll)
	}
}

func (n *Node) await(w Wait, last uint64, poll func() (uint64, bool)) {
	r := &WaitRecord{Wait: w, Node: n.id, StartNS: n.VirtualNS()}
	n.waitMu.Lock()
	n.waits = append(n.waits, r)
	n.waitMu.Unlock()
	defer func() {
		n.waitMu.Lock()
		n.waits = slices.DeleteFunc(n.waits, func(o *WaitRecord) bool { return o == r })
		n.waitMu.Unlock()
	}()
	for k, done := 1, false; !done; k++ {
		r.Last.Store(last)
		if n.hooked.Load() {
			n.fireOp(OpAwait, uint64(w.Word), last)
		}
		if w.Every > 0 && k%w.Every == 0 {
			time.Sleep(w.Sleep)
		} else {
			runtime.Gosched()
		}
		last, done = poll()
	}
}

// Waits returns n's open waits, oldest first.
func (n *Node) Waits() []*WaitRecord {
	n.waitMu.Lock()
	defer n.waitMu.Unlock()
	return slices.Clone(n.waits)
}
