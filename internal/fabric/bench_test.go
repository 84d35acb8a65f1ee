package fabric

import "testing"

// Micro-benchmarks of the simulator itself (latency model off): how fast
// the host can simulate fabric operations. The modeled costs live in the
// virtual-time ledger, not in these wall-clock numbers.

func benchFabric(b *testing.B) (*Fabric, *Node, GPtr) {
	b.Helper()
	f := New(Config{GlobalSize: 16 << 20, Nodes: 2})
	return f, f.Node(0), f.Reserve(1<<20, LineSize)
}

func BenchmarkLoad64Hit(b *testing.B) {
	_, n, g := benchFabric(b)
	n.Load64(g) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Load64(g)
	}
}

func BenchmarkLoad64Miss(b *testing.B) {
	_, n, g := benchFabric(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.InvalidateRange(g, 8)
		n.Load64(g)
	}
}

func BenchmarkStore64(b *testing.B) {
	_, n, g := benchFabric(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Store64(g, uint64(i))
	}
}

func BenchmarkCAS64(b *testing.B) {
	_, n, g := benchFabric(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.CAS64(g, uint64(i), uint64(i+1))
	}
}

func BenchmarkAdd64(b *testing.B) {
	_, n, g := benchFabric(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Add64(g, 1)
	}
}

func BenchmarkBulkWrite4K(b *testing.B) {
	_, n, g := benchFabric(b)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Write(g, buf)
	}
}

func BenchmarkBulkRead4K(b *testing.B) {
	_, n, g := benchFabric(b)
	buf := make([]byte, 4096)
	n.Write(g, buf)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Read(g, buf)
	}
}

func BenchmarkWriteBackFlush4K(b *testing.B) {
	_, n, g := benchFabric(b)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Write(g, buf)
		n.FlushRange(g, 4096)
	}
}

func BenchmarkCrossNodePublish(b *testing.B) {
	f, n, g := benchFabric(b)
	peer := f.Node(1)
	buf := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Write(g, buf)
		n.WriteBackRange(g, 256)
		peer.InvalidateRange(g, 256)
		peer.Read(g, buf)
	}
}

// Ranged write-back vs the pinned per-line baseline: the batching win the
// fabric experiment gates on. Each iteration dirties the lines (the store
// loop's cost is common to both) then writes them back in one ranged call
// or via the legacy per-line path.

func benchWBR(b *testing.B, lines uint64, wbr func(*Node, GPtr, uint64)) {
	_, n, g := benchFabric(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := uint64(0); l < lines; l++ {
			n.Store64(g.Add(l*LineSize), uint64(i))
		}
		wbr(n, g, lines*LineSize)
	}
}

func BenchmarkWriteBackRange1(b *testing.B) {
	benchWBR(b, 1, (*Node).WriteBackRange)
}

func BenchmarkWriteBackRange16(b *testing.B) {
	benchWBR(b, 16, (*Node).WriteBackRange)
}

func BenchmarkWriteBackRange64(b *testing.B) {
	benchWBR(b, 64, (*Node).WriteBackRange)
}

func BenchmarkWriteBackRange16PerLine(b *testing.B) {
	benchWBR(b, 16, (*Node).WriteBackRangePerLine)
}

// BenchmarkWriteFreshSparsePage is the shared page cache's fill path: a
// 4 KiB WriteFresh into a frame of a sparse region. "fresh" writes into
// never-written blocks, which the write installs with their contents;
// "installed" rewrites frames whose blocks are installed. A fresh run
// takes a new fabric every 4096 pages, off the clock.
func BenchmarkWriteFreshSparsePage(b *testing.B) {
	const pages, page = 4096, 4096
	buf := make([]byte, page)
	for i := range buf {
		buf[i] = byte(i) | 1
	}
	for _, fresh := range []bool{true, false} {
		name := map[bool]string{true: "fresh", false: "installed"}[fresh]
		b.Run(name, func(b *testing.B) {
			var n *Node
			var g GPtr
			setup := func() {
				f := New(Config{GlobalSize: 2 * pages * page, Nodes: 1})
				n, g = f.Node(0), f.ReserveSparse(pages*page)
				if !fresh {
					for p := uint64(0); p < pages; p++ {
						n.WriteFresh(g.Add(p*page), buf)
					}
				}
			}
			setup()
			b.SetBytes(page)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := uint64(i % pages)
				if p == 0 && i > 0 && fresh {
					b.StopTimer()
					setup()
					b.StartTimer()
				}
				n.WriteFresh(g.Add(p*page), buf)
			}
		})
	}
}
