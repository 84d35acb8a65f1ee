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
