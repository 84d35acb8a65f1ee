package memsys

import (
	"fmt"
	"testing"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/alloc"
)

func benchEnv(b *testing.B, nodes int) *env {
	b.Helper()
	f := fabric.New(fabric.Config{GlobalSize: 96 << 20, Nodes: nodes})
	return &env{
		fab:    f,
		frames: NewGlobalFrames(f, 8192),
		arena:  alloc.NewArena(f, 48<<20),
	}
}

func BenchmarkTranslateTLBHit(b *testing.B) {
	e := benchEnv(b, 1)
	s := NewSpace(e.fab, 1, e.frames, e.arena.NodeAllocator(e.fab.Node(0), 0), 64)
	m := s.Attach(e.fab.Node(0), e.arena.NodeAllocator(e.fab.Node(0), 0), nil, 256)
	m.MMap(0x100000, 1, ProtRead|ProtWrite, BackGlobal)
	buf := make([]byte, 8)
	m.Read(0x100000, buf) // fault in + fill TLB
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Read(0x100000, buf)
	}
}

func BenchmarkTranslateTLBMissPTWalk(b *testing.B) {
	e := benchEnv(b, 1)
	s := NewSpace(e.fab, 1, e.frames, e.arena.NodeAllocator(e.fab.Node(0), 0), 64)
	m := s.Attach(e.fab.Node(0), e.arena.NodeAllocator(e.fab.Node(0), 0), nil, 256)
	m.MMap(0x100000, 1, ProtRead|ProtWrite, BackGlobal)
	buf := make([]byte, 8)
	m.Read(0x100000, buf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.tlb.flush()
		m.Read(0x100000, buf)
	}
}

func BenchmarkDemandFault(b *testing.B) {
	e := benchEnv(b, 1)
	s := NewSpace(e.fab, 1, e.frames, e.arena.NodeAllocator(e.fab.Node(0), 0), 2048)
	m := s.Attach(e.fab.Node(0), e.arena.NodeAllocator(e.fab.Node(0), 0), nil, 4096)
	const pages = 2048
	m.MMap(0x100000, pages, ProtRead|ProtWrite, BackGlobal)
	buf := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := 0x100000 + uint64(i%pages)*PageSize
		if i%pages == 0 && i > 0 {
			b.StopTimer()
			m.MUnmap(0x100000, pages) // release so frames recycle
			m.MMap(0x100000, pages, ProtRead|ProtWrite, BackGlobal)
			b.StartTimer()
		}
		m.Read(va, buf)
	}
}

// BenchmarkTLBShootdown measures the rack-wide shootdown cost as receiver
// count grows — the §3.3 scaling consideration for shared page tables.
func BenchmarkTLBShootdown(b *testing.B) {
	for _, nodes := range []int{2, 4, 8} {
		b.Run(bName(nodes), func(b *testing.B) {
			e := benchEnv(b, nodes)
			s := NewSpace(e.fab, 1, e.frames, e.arena.NodeAllocator(e.fab.Node(0), 0), 64)
			mmus := make([]*MMU, nodes)
			for i := range mmus {
				n := e.fab.Node(i)
				mmus[i] = s.Attach(n, e.arena.NodeAllocator(n, 0), nil, 256)
			}
			mmus[0].MMap(0x100000, 1, ProtRead|ProtWrite, BackGlobal)
			buf := make([]byte, 8)
			for _, m := range mmus {
				m.Read(0x100000, buf) // everyone caches the translation
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.shootdown(mmus[0], 0x100000>>PageShift)
			}
		})
	}
}

func bName(n int) string { return fmt.Sprintf("%dnodes", n) }
