package ds

import (
	"testing"

	"flacos/internal/fabric"
)

func benchRack(b *testing.B) *fabric.Fabric {
	b.Helper()
	return fabric.New(fabric.Config{GlobalSize: 64 << 20, Nodes: 2})
}

func BenchmarkHashMapPut(b *testing.B) {
	f := benchRack(b)
	m := NewHashMap(f, 1<<20)
	n := f.Node(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Put(n, uint64(i%500_000)+1, uint64(i))
	}
}

func BenchmarkHashMapGet(b *testing.B) {
	f := benchRack(b)
	m := NewHashMap(f, 1<<16)
	n := f.Node(0)
	for i := uint64(1); i <= 10_000; i++ {
		m.Put(n, i, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(n, uint64(i%10_000)+1)
	}
}

func BenchmarkSPSCRingRoundTrip(b *testing.B) {
	f := benchRack(b)
	r := NewSPSCRing(f, 8, 256)
	prod, cons := f.Node(0), f.Node(1)
	msg := make([]byte, 64)
	buf := make([]byte, 256)
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Push(prod, msg)
		r.Pop(cons, buf)
	}
}

func BenchmarkMPSCRingRoundTrip(b *testing.B) {
	f := benchRack(b)
	r := NewMPSCRing(f, f.Node(0), 8, 256)
	prod, cons := f.Node(1), f.Node(0)
	msg := make([]byte, 64)
	buf := make([]byte, 256)
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Push(prod, msg)
		popMPSC(r, cons, buf)
	}
}
