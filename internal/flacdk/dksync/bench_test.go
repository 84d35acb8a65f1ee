package dksync

import (
	"sync"
	"testing"

	"flacos/internal/fabric"
)

// Lock benchmarks: wall-clock here measures simulator speed; the
// interesting figure is the virtual-cost profile each leaves in the fabric
// ledger, reported as fabric-atomics-per-acquire.

func benchLockRack() *fabric.Fabric {
	return fabric.New(fabric.Config{GlobalSize: 8 << 20, Nodes: 4})
}

func BenchmarkSpinLockUncontended(b *testing.B) {
	f := benchLockRack()
	l := NewSpinLock(f)
	n := f.Node(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Lock(n)
		l.Unlock(n)
	}
	reportAtomicsPerOp(b, f)
}

func reportAtomicsPerOp(b *testing.B, f *fabric.Fabric) {
	b.Helper()
	s := f.RackStats()
	b.ReportMetric(float64(s.Atomics)/float64(b.N), "fabric-atomics/op")
}

// BenchmarkSpinLockContended has 4 nodes hammer one lock: every failed
// test-and-set is another fabric atomic.
func BenchmarkSpinLockContended(b *testing.B) {
	f := benchLockRack()
	l := NewSpinLock(f)
	const workers = 4
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(n *fabric.Node) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Lock(n)
				l.Unlock(n)
			}
		}(f.Node(w))
	}
	wg.Wait()
	reportAtomicsPerOp(b, f)
}

func BenchmarkLockedRegionCriticalSection(b *testing.B) {
	f := benchLockRack()
	r := NewLockedRegion(f, 256)
	n := f.Node(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Do(n, func() {
			n.Store64(r.Data, n.Load64(r.Data)+1)
		})
	}
}
