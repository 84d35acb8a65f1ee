package fs

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"flacos/internal/fabric"
)

func TestRenameAcrossNodes(t *testing.T) {
	f, fsys, _ := newFS(t, 2)
	m0, m1 := fsys.Mount(f.Node(0)), fsys.Mount(f.Node(1))
	id, _ := m0.Create("/a/old")
	m0.Write(id, 0, []byte("content survives rename"))

	if err := m1.Rename("/a/old", "/a/new"); err != nil { // from the other node
		t.Fatal(err)
	}
	if _, ok := m0.Lookup("/a/old"); ok {
		t.Fatal("old name still resolves")
	}
	got, ok := m0.Lookup("/a/new")
	if !ok || got != id {
		t.Fatalf("new name = %d,%v", got, ok)
	}
	buf := make([]byte, 24)
	if n, _ := m0.Read(id, 0, buf); string(buf[:n]) != "content survives rename" {
		t.Fatalf("content = %q", buf[:n])
	}
	// Error cases.
	if err := m0.Rename("/a/missing", "/x"); err == nil {
		t.Fatal("rename of missing file should fail")
	}
	m0.Create("/a/taken")
	if err := m0.Rename("/a/new", "/a/taken"); err == nil {
		t.Fatal("rename onto existing name should fail")
	}
}

func TestListWithPrefix(t *testing.T) {
	f, fsys, _ := newFS(t, 2)
	m0, m1 := fsys.Mount(f.Node(0)), fsys.Mount(f.Node(1))
	for _, name := range []string{"/etc/a", "/etc/b", "/var/log", "/etc/c"} {
		if _, err := m0.Create(name); err != nil {
			t.Fatal(err)
		}
	}
	got := m1.List("/etc/") // listing replicated metadata from node 1
	want := []string{"/etc/a", "/etc/b", "/etc/c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
	if all := m1.List(""); len(all) != 4 {
		t.Fatalf("List(\"\") = %v", all)
	}
	if none := m1.List("/nope"); len(none) != 0 {
		t.Fatalf("List(/nope) = %v", none)
	}
}

func TestAppendSequential(t *testing.T) {
	f, fsys, _ := newFS(t, 1)
	m := fsys.Mount(f.Node(0))
	id, _ := m.Create("log")
	off1, err := m.Append(id, []byte("first."))
	if err != nil || off1 != 0 {
		t.Fatalf("append 1: %d, %v", off1, err)
	}
	off2, _ := m.Append(id, []byte("second."))
	if off2 != 6 {
		t.Fatalf("append 2 at %d", off2)
	}
	buf := make([]byte, 13)
	m.Read(id, 0, buf)
	if string(buf) != "first.second." {
		t.Fatalf("log = %q", buf)
	}
	if _, err := m.Append(999, []byte("x")); err == nil {
		t.Fatal("append to unknown file should fail")
	}
}

func TestAppendConcurrentDisjointOffsets(t *testing.T) {
	const writers, per = 4, 50
	f, fsys, _ := newFS(t, 4)
	m0 := fsys.Mount(f.Node(0))
	id, _ := m0.Create("shared-log")
	mounts := []*Mount{m0, fsys.Mount(f.Node(1)), fsys.Mount(f.Node(2)), fsys.Mount(f.Node(3))}

	var mu sync.Mutex
	offsets := map[uint64]bool{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := bytes.Repeat([]byte{byte(w + 1)}, 32)
			for i := 0; i < per; i++ {
				off, err := mounts[w].Append(id, rec)
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				mu.Lock()
				if offsets[off] {
					t.Errorf("offset %d claimed twice", off)
				}
				offsets[off] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if got := m0.Size(id); got != writers*per*32 {
		t.Fatalf("size = %d, want %d", got, writers*per*32)
	}
	// Every 32-byte record must be uniform (no interleaving).
	buf := make([]byte, 32)
	for off := uint64(0); off < writers*per*32; off += 32 {
		m0.Read(id, off, buf)
		for _, b := range buf {
			if b != buf[0] || b == 0 {
				t.Fatalf("record at %d torn: % x", off, buf)
			}
		}
	}
}

// TestPartialPageWriteKeepsConcurrentInstall is the deterministic form of
// what TestAppendConcurrentDisjointOffsets catches by interleaving: mount
// B installs a version of the page after mount A's partial-page write has
// read the version it merges into and before A installs. A must notice —
// its install is against exactly the version it read — and merge again;
// installing over whatever is current loses B's bytes. Run for a page that
// starts as a hole (A's install is a PutIfAbsent) and for one that already
// has a version (a CompareAndSwap).
func TestPartialPageWriteKeepsConcurrentInstall(t *testing.T) {
	for _, seeded := range []bool{false, true} {
		t.Run(fmt.Sprintf("seeded=%v", seeded), func(t *testing.T) {
			f, fsys, _ := newFS(t, 2)
			a, b := fsys.Mount(f.Node(0)), fsys.Mount(f.Node(1))
			id, _ := a.Create("page")
			want := make([]byte, PageSize)
			if seeded {
				for i := range want {
					want[i] = 0xEE
				}
				a.Write(id, 0, want)
			}
			aHalf, bHalf := bytes.Repeat([]byte{0xA1}, 100), bytes.Repeat([]byte{0xB2}, 100)
			copy(want[0:], aHalf)
			copy(want[PageSize/2:], bHalf)

			// A's first ranged write-back inside Write is its merged frame going
			// home: after the read of the old version, before the install.
			fired := false
			f.Node(0).SetOpHook(func(k fabric.OpKind, _, _ uint64) {
				if k == fabric.OpWriteBackRange && !fired {
					fired = true
					b.Write(id, PageSize/2, bHalf)
				}
			})
			a.Write(id, 0, aHalf)
			f.Node(0).SetOpHook(nil)
			if !fired {
				t.Fatal("the script never ran B's write")
			}
			a.bumpSize(id, PageSize)
			for _, m := range []*Mount{a, b} {
				got := make([]byte, PageSize)
				m.Read(id, 0, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("node %d: A's half %x.., B's half %x.., rest %x; want %x.., %x.., %x",
						m.Node().ID(), got[:2], got[PageSize/2:PageSize/2+2], got[PageSize-1], aHalf[:2], bHalf[:2], want[PageSize-1])
				}
			}
		})
	}
}

func TestTruncate(t *testing.T) {
	f, fsys, _ := newFS(t, 1)
	m := fsys.Mount(f.Node(0))
	id, _ := m.Create("t")
	m.Write(id, 0, bytes.Repeat([]byte{7}, 3*PageSize))
	if fsys.CachedPages(f.Node(0)) != 3 {
		t.Fatalf("cached = %d", fsys.CachedPages(f.Node(0)))
	}
	// Shrink to 1.5 pages: page 2 must be dropped, page 1 kept (contains
	// live data up to the new EOF).
	if err := m.Truncate(id, PageSize+PageSize/2); err != nil {
		t.Fatal(err)
	}
	if got := m.Size(id); got != PageSize+PageSize/2 {
		t.Fatalf("size = %d", got)
	}
	if fsys.CachedPages(f.Node(0)) != 2 {
		t.Fatalf("cached after truncate = %d", fsys.CachedPages(f.Node(0)))
	}
	buf := make([]byte, PageSize)
	n, _ := m.Read(id, PageSize, buf)
	if n != PageSize/2 {
		t.Fatalf("read past new EOF = %d", n)
	}
	// Growing is allowed too (sparse tail reads as zeros).
	if err := m.Truncate(id, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	n, _ = m.Read(id, 3*PageSize, buf)
	if n != PageSize || !bytes.Equal(buf, make([]byte, PageSize)) {
		t.Fatalf("sparse tail read n=%d", n)
	}
	if err := m.Truncate(999, 0); err == nil {
		t.Fatal("truncate of unknown file should fail")
	}
}

// scriptDev is a MemDev that runs a script inside its next WritePage: the
// point of a write-back pass at which the page's bytes have left the cache
// for the device and its dirty mark has not yet been looked at.
type scriptDev struct {
	*MemDev
	onWrite func()
}

func (d *scriptDev) WritePage(n *fabric.Node, fileID uint64, page uint32, data []byte) {
	d.MemDev.WritePage(n, fileID, page, data)
	if fn := d.onWrite; fn != nil {
		d.onWrite = nil
		fn()
	}
}

func pageOf(b byte) []byte { return bytes.Repeat([]byte{b}, PageSize) }

// TestWriteBackOnceKeepsReusedFrameDirty scripts the frame-reuse race
// (ROADMAP item 1, audit (b)): while mount A's pass is writing version 1 of
// a page to the device, mount B rewrites the page until the allocator hands
// version 1's frame out again for a newer version. A pass that had left its
// read section by then lets that happen, finds the dirty mark naming "its"
// frame, and clears it: the newest version never reaches the device. Held
// across the pass, the section keeps the frame from being freed at all —
// whatever B does, the mark it leaves names another frame, the page stays
// dirty, and the next pass writes it.
func TestWriteBackOnceKeepsReusedFrameDirty(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 48 << 20, Nodes: 2})
	dev := &scriptDev{MemDev: NewMemDev(0, 0)}
	fsys := New(f, dev, Config{CacheFrames: 256, MetaLogCap: 64})
	a, b := fsys.Mount(f.Node(0)), fsys.Mount(f.Node(1))
	id, _ := a.Create("page")
	a.Write(id, 0, pageOf(1))
	key := pageKey(id, 0)
	first, _ := fsys.index.Get(f.Node(0), key)

	last := byte(1)
	dev.onWrite = func() {
		for v := byte(2); v < 12; v++ { // each write retires a frame and turns the epoch once
			b.Write(id, 0, pageOf(v))
			last = v
			if fk, _ := fsys.index.Get(f.Node(1), key); fk == first {
				return // version 1's frame, reused for version v
			}
		}
	}
	if n := a.WriteBackOnce(); n != 1 || last == 1 {
		t.Fatalf("the pass wrote %d pages and the script rewrote the page up to version %d", n, last)
	}
	if got := a.DirtyPages(); got != 1 {
		t.Fatalf("DirtyPages = %d after the page was rewritten during the pass: version %d lost its dirty mark", got, last)
	}
	if n := a.WriteBackOnce(); n != 1 {
		t.Fatalf("the next pass wrote %d pages, want 1", n)
	}
	var got [PageSize]byte
	if !dev.ReadPage(f.Node(0), id, 0, got[:]) || got[0] != last || got[PageSize-1] != last {
		t.Fatalf("device holds version %d, want %d", got[0], last)
	}
	if got := a.DirtyPages(); got != 0 {
		t.Fatalf("DirtyPages = %d after an undisturbed pass", got)
	}
}

// TestWriteBackOnceClearIsOneStep scripts the other half: the page is
// re-dirtied between the clear's look at the mark and its clearing of it
// (the script runs on the fetch of the dirty table's line by the clear's
// CompareAndSwap; at the parent commit the two steps were a Get and a
// Delete, two fabric atomics apart, a window no op hook can reach — the
// frame-reuse test above is the one that fails there). The clear is one
// CAS on the mark it expects, so the new mark survives it.
func TestWriteBackOnceClearIsOneStep(t *testing.T) {
	f, fsys, dev := newFS(t, 2)
	a, b := fsys.Mount(f.Node(0)), fsys.Mount(f.Node(1))
	id, _ := a.Create("page")
	a.Write(id, 0, pageOf(1))

	// A's single-line fetches during the pass (Range over the dirty table
	// reads many lines at a time): the index probe, then the clear's probe
	// of the dirty table.
	probes := 0
	f.Node(0).SetOpHook(func(k fabric.OpKind, _, lines uint64) {
		if k == fabric.OpReadFresh && lines == 1 {
			if probes++; probes == 2 {
				b.Write(id, 0, pageOf(2))
			}
		}
	})
	n := a.WriteBackOnce()
	f.Node(0).SetOpHook(nil)
	if n != 1 || probes != 2 {
		t.Fatalf("the pass wrote %d pages in %d index probes; the script expects 1 and 2", n, probes)
	}
	if got := a.DirtyPages(); got != 1 {
		t.Fatalf("DirtyPages = %d: the write that landed inside the clear lost its mark", got)
	}
	if n := b.WriteBackOnce(); n != 1 {
		t.Fatalf("the next pass wrote %d pages, want 1", n)
	}
	var got [PageSize]byte
	if !dev.ReadPage(f.Node(0), id, 0, got[:]) || got[0] != 2 {
		t.Fatalf("device holds version %d, want 2", got[0])
	}
	// A clean page is not written again, and writing it dirties it again.
	if n, d := a.WriteBackOnce(), a.DirtyPages(); n != 0 || d != 0 {
		t.Fatalf("pass over a clean cache wrote %d pages, %d dirty", n, d)
	}
	b.Write(id, 0, pageOf(3))
	if d := a.DirtyPages(); d != 1 {
		t.Fatalf("DirtyPages = %d after writing a clean page, want 1", d)
	}
}
