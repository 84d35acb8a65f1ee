package trace

import (
	"testing"

	"flacos/internal/fabric"
)

// BenchmarkEmit measures the wall-clock hot path of one event: compose,
// full-line cached write, explicit write-back. Nothing consumes a ring,
// so every half capacity the benchmark moves to a fresh rack's writer and
// never enters the (cheaper) drop path.
func BenchmarkEmit(b *testing.B) {
	var w *Writer
	fresh := func() {
		if d := w.Dropped(); d != 0 {
			b.Fatalf("benchmark dropped %d events; the drop path polluted the measurement", d)
		}
		f := fabric.New(fabric.Config{
			GlobalSize: 64 << 20, Nodes: 2,
			CacheCapacityLines: -1, Latency: fabric.DefaultLatency(),
		})
		w = New(f, Config{RingCap: 1 << 16}).Writer(0)
	}
	fresh()
	drain := int(w.rec.Cap() / 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Emit(SubApp, KMark, 0, uint64(i), 0)
		if i%drain == drain-1 {
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
	}
	b.StopTimer()
	fresh()
}
