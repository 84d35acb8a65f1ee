package fs

import (
	"testing"

	"flacos/internal/fabric"
)

func benchFS(b *testing.B) (*fabric.Fabric, *FS) {
	b.Helper()
	f := fabric.New(fabric.Config{GlobalSize: 128 << 20, Nodes: 2})
	return f, New(f, NewMemDev(50_000, 60_000), Config{CacheFrames: 16384})
}

func BenchmarkWriteFullPage(b *testing.B) {
	f, fsys := benchFS(b)
	m := fsys.Mount(f.Node(0))
	id, _ := m.Create("bench")
	page := make([]byte, PageSize)
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Write(id, uint64(i%4096)*PageSize, page)
	}
}

func BenchmarkReadCachedPage(b *testing.B) {
	f, fsys := benchFS(b)
	m := fsys.Mount(f.Node(0))
	id, _ := m.Create("bench")
	page := make([]byte, PageSize)
	for i := 0; i < 64; i++ {
		m.Write(id, uint64(i)*PageSize, page)
	}
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Read(id, uint64(i%64)*PageSize, page)
	}
}

func BenchmarkReadCachedPageCrossNode(b *testing.B) {
	f, fsys := benchFS(b)
	m0 := fsys.Mount(f.Node(0))
	m1 := fsys.Mount(f.Node(1))
	id, _ := m0.Create("bench")
	page := make([]byte, PageSize)
	for i := 0; i < 64; i++ {
		m0.Write(id, uint64(i)*PageSize, page)
	}
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m1.Read(id, uint64(i%64)*PageSize, page)
	}
}

func BenchmarkPartialPageRMW(b *testing.B) {
	f, fsys := benchFS(b)
	m := fsys.Mount(f.Node(0))
	id, _ := m.Create("bench")
	m.Write(id, 0, make([]byte, PageSize))
	small := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Write(id, uint64(i%50)*64, small)
	}
}
