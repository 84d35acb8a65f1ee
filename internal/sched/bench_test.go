package sched

import (
	"testing"
	"time"

	"flacos/internal/fabric"
)

// benchRack builds a 4-node fabric and a started scheduler whose task
// increments a per-node counter — cheap enough that dispatch overhead
// dominates, which is what these benchmarks measure.
func benchRack(b *testing.B, cfg Config) (*fabric.Fabric, *Scheduler, FuncID, fabric.GPtr) {
	b.Helper()
	f := fabric.New(fabric.Config{GlobalSize: 64 << 20, Nodes: 4, CacheCapacityLines: -1})
	s := New(f, cfg)
	b.Cleanup(s.Stop)
	perNode := f.Reserve(8*4, fabric.LineSize)
	fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		n.Add64(fabric.GPtr(arg0).Add(uint64(n.ID())*8), 1)
	})
	s.Start()
	return f, s, fn, perNode
}

func reportDispatch(b *testing.B, s *Scheduler) {
	h := s.DispatchHist()
	b.ReportMetric(h.Percentile(50), "p50-dispatch-ns")
	b.ReportMetric(h.Percentile(99), "p99-dispatch-ns")
}

// BenchmarkSchedLocal measures dispatch when every task lands on its
// preferred node: submit from node 0 preferring node 0, so the claim is
// an announcement-inbox pop with no cross-node stealing.
func BenchmarkSchedLocal(b *testing.B) {
	f, s, fn, perNode := benchRack(b, Config{
		Policy: PolicyLocality, LocalitySlack: 1 << 40, // never spill off the preferred node
		StealGrace: 10 * time.Millisecond, // and nobody steals within a drain burst
	})
	n0 := f.Node(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Submit(n0, Task{Fn: fn, Arg0: uint64(perNode), Preferred: 0})
		if i%64 == 63 {
			s.Drain(n0) // keep the table from saturating
		}
	}
	if !s.Drain(n0) {
		b.Fatal("Drain aborted")
	}
	b.StopTimer()
	reportDispatch(b, s)
	reportStolen(b, n0, perNode)
}

// BenchmarkSchedSteal measures the cross-node steal path: every task is
// pinned to node 0 by a huge locality slack, so the other three nodes
// only get work by claiming out of the global table.
func BenchmarkSchedSteal(b *testing.B) {
	f, s, fn, perNode := benchRack(b, Config{
		Policy: PolicyLocality, LocalitySlack: 1 << 40,
		WorkersPerNode: 1, StealGrace: time.Nanosecond, IdleTick: 50 * time.Microsecond,
	})
	n0 := f.Node(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Submit(n0, Task{Fn: fn, Arg0: uint64(perNode), Preferred: 0})
		if i%64 == 63 {
			s.Drain(n0)
		}
	}
	if !s.Drain(n0) {
		b.Fatal("Drain aborted")
	}
	b.StopTimer()
	reportDispatch(b, s)
	reportStolen(b, n0, perNode)
}

// reportStolen reports the tasks run off node 0 of benchRack's four, each
// counted in its node's perNode word: every task was assigned node 0, so
// these are the steals.
func reportStolen(b *testing.B, n0 *fabric.Node, perNode fabric.GPtr) {
	stolen := uint64(0)
	for id := 1; id < 4; id++ {
		stolen += n0.AtomicLoad64(perNode.Add(uint64(id) * 8))
	}
	b.ReportMetric(float64(stolen), "stolen")
}
