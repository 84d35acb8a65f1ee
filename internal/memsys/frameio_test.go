package memsys

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"flacos/internal/fabric"
)

// framePastTheCache fails t unless no line of the frame at phys is
// resident in n's cache: every line of it must miss.
func framePastTheCache(t *testing.T, what string, n *fabric.Node, phys uint64) {
	t.Helper()
	before := n.Stats()
	for off := uint64(0); off < PageSize; off += fabric.LineSize {
		n.Load64(fabric.GPtr(phys + off))
	}
	if d := n.Stats().Delta(before); d.Misses != pageLines {
		t.Errorf("%s: %d lines of the frame were resident on node %d, want 0", what, pageLines-d.Misses, n.ID())
	}
	n.InvalidateRange(fabric.GPtr(phys), PageSize)
}

// TestFrameIOWriteFreshLeavesNoLines: page frames move past the node
// cache. A zero-filled frame, a page migrated into global memory and a
// frame read through the MMU leave none of the frame's lines resident on
// the node that moved them.
func TestFrameIOWriteFreshLeavesNoLines(t *testing.T) {
	e := newEnv(t, 2)
	n0, n1 := e.fab.Node(0), e.fab.Node(1)
	framePastTheCache(t, "Alloc", n0, e.frames.Alloc(n0))

	s := e.space(1)
	m0, m1 := e.attach(s, 0), e.attach(s, 1)
	const local, global = 0x60000, 0x100000
	msg := bytes.Repeat([]byte{0x5a}, PageSize)
	for _, c := range []struct {
		va   uint64
		back Backing
	}{{local, BackLocal}, {global, BackGlobal}} {
		if err := m0.MMap(c.va, 1, ProtRead|ProtWrite, c.back); err != nil {
			t.Fatal(err)
		}
		if err := m0.Write(c.va, msg); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, PageSize)
	if err := m1.Read(local, got); err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("read of the migrated page: err %v, content ok %v", err, bytes.Equal(got, msg))
	}
	framePastTheCache(t, "migrate and read", n1, m1.PTEOf(local).GlobalPhys())
	if err := m1.Read(global, got); err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("read of the global page: err %v, content ok %v", err, bytes.Equal(got, msg))
	}
	framePastTheCache(t, "read", n1, m1.PTEOf(global).GlobalPhys())
}

// TestSameNodeReadKeepsWriteBack: a node's read of a global page landing
// between the same node's store to it and that store's write-back must
// not drop the stored lines (ReadFresh drops the range's cached lines,
// dirty ones included). The op hook runs the read exactly there: on the
// store's miss, before writeFrame's write-back. The read is given 50 ms;
// a frame read that waits for the write-back out-waits it, which only
// costs the test the wait.
func TestSameNodeReadKeepsWriteBack(t *testing.T) {
	e := newEnv(t, 2)
	n0 := e.fab.Node(0)
	s := e.space(1)
	m0, m1 := e.attach(s, 0), e.attach(s, 1)
	const va = 0x100000
	if err := m0.MMap(va, 1, ProtRead|ProtWrite, BackGlobal); err != nil {
		t.Fatal(err)
	}
	if err := m0.Write(va, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	if err := m0.Read(va, got); err != nil { // drops the page's lines
		t.Fatal(err)
	}
	line := fabric.GPtr(m0.PTEOf(va).GlobalPhys()).Line()
	read := make(chan error, 1)
	var fired atomic.Bool
	n0.SetOpHook(func(k fabric.OpKind, arg0, _ uint64) {
		if k != fabric.OpMiss || arg0 != line || !fired.CompareAndSwap(false, true) {
			return
		}
		go func() { read <- m0.Read(va, make([]byte, 2)) }()
		select {
		case err := <-read:
			read <- err
		case <-time.After(50 * time.Millisecond):
		}
	})
	err := m0.Write(va, []byte("v2"))
	n0.SetOpHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fired.Load() {
		t.Fatal("the store did not miss on the page's first line")
	}
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if err := m1.Read(va, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2" {
		t.Fatalf("node 1 read %q after node 0 wrote v2: the write-back was lost", got)
	}
}

// onSample runs fn on every translation (a Sampler that ignores Migrated).
type onSample func(node int, vpn uint64, write bool)

func (f onSample) Sample(node int, vpn uint64, write bool) { f(node, vpn, write) }
func (onSample) Migrated(uint64, int)                      {}

// TestShotDownStoreMissesRetiredFrame: a store whose translation a
// shootdown kills between the translation and the store must not land in
// the frame the shootdown retired. The sampler runs a dedup pass exactly
// there: node 1 has translated page B for writing, and node 0 merges B
// into identical page A and frees B's frame. A store into the freed frame
// overwrites the free-list link kept in its first word, so the frame
// allocator hands out garbage afterwards.
func TestShotDownStoreMissesRetiredFrame(t *testing.T) {
	e := newEnv(t, 2)
	s := e.space(1)
	m0, m1 := e.attach(s, 0), e.attach(s, 1)
	const vaA, vaB = 0x100000, 0x101000
	if err := m0.MMap(vaA, 2, ProtRead|ProtWrite, BackGlobal); err != nil {
		t.Fatal(err)
	}
	same := bytes.Repeat([]byte{7}, PageSize)
	for _, va := range []uint64{vaA, vaB} {
		if err := m0.Write(va, same); err != nil {
			t.Fatal(err)
		}
	}
	merged := -1
	s.SetSampler(onSample(func(node int, vpn uint64, write bool) {
		if node == 1 && vpn == vaB>>PageShift && write && merged < 0 {
			merged = m0.DedupPass()
		}
	}))
	stray := []byte("not in a free frame")
	if err := m1.Write(vaB, stray); err != nil {
		t.Fatal(err)
	}
	s.SetSampler(nil)
	if merged != 1 {
		t.Fatalf("the dedup pass merged %d pages, want 1", merged)
	}
	got := make([]byte, PageSize)
	if err := m0.Read(vaB, got); err != nil || !bytes.Equal(got[:len(stray)], stray) || !bytes.Equal(got[len(stray):], same[len(stray):]) {
		t.Fatalf("page B after the write: err %v, content wrong", err)
	}
	if err := m0.Read(vaA, got); err != nil || !bytes.Equal(got, same) {
		t.Fatalf("page A after the write: err %v, content wrong", err)
	}
	n0 := e.fab.Node(0)
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("allocation %d after the write panicked: %v", i, r)
				}
			}()
			if phys := e.frames.Alloc(n0); !e.frames.Contains(phys) {
				t.Fatalf("allocation %d after the write returned %#x, outside the frame pool", i, phys)
			}
		}()
	}
}
