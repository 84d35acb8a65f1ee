// Package retention is flacvet corpus: planted violations of rule 4
// (grace-period-retention) plus the correct publish-then-retire idiom.
package retention

import (
	"flacos/internal/fabric"
	"flacos/internal/flacdk/quiescence"
)

// useAfterRetire publishes a new version, retires the old block — and
// then, the planted bug, keeps dereferencing the retired offset. After
// the grace period that memory belongs to someone else.
func useAfterRetire(n *fabric.Node, p *quiescence.Participant, a quiescence.Allocator, headG fabric.GPtr, data []byte) uint64 {
	v := a.Alloc(uint64(len(data)))
	n.Write(v, data)
	n.WriteBackRange(v, uint64(len(data)))
	old := fabric.GPtr(n.Swap64(headG, uint64(v)))
	p.RetireTo(a, old)
	return n.AtomicLoad64(old) // want `used after being handed to RetireTo`
}

// captureAfterRetire leaks the retired offset into a closure that will
// run arbitrarily later — after the grace period has recycled it.
func captureAfterRetire(n *fabric.Node, p *quiescence.Participant, a quiescence.Allocator, old fabric.GPtr) func() uint64 {
	p.RetireTo(a, old)
	return func() uint64 {
		return n.AtomicLoad64(old) // want `used after being handed to RetireTo`
	}
}

// useAfterConvertedRetire hands the offset over through a conversion, as
// callers holding a raw word do; the variable under it is still retired.
func useAfterConvertedRetire(n *fabric.Node, p *quiescence.Participant, a quiescence.Allocator, headG fabric.GPtr) {
	old := fabric.GPtr(n.AtomicLoad64(headG))
	p.RetireTo(a, fabric.GPtr(old))
	n.AtomicStore64(old, 0) // want `used after being handed to RetireTo`
}

// useAfterFree skips the grace period entirely and still loses: the
// allocator may already have reissued the block.
func useAfterFree(n *fabric.Node, a quiescence.Allocator, g fabric.GPtr) {
	a.Free(g)
	n.AtomicStore64(g, 1) // want `used after being handed to Free`
}

// retireGood is the contract idiom: after RetireTo the old offset is
// never touched again on this path. No diagnostic.
func retireGood(n *fabric.Node, p *quiescence.Participant, a quiescence.Allocator, headG fabric.GPtr, data []byte) fabric.GPtr {
	v := a.Alloc(uint64(len(data)))
	n.Write(v, data)
	n.WriteBackRange(v, uint64(len(data)))
	old := fabric.GPtr(n.Swap64(headG, uint64(v)))
	p.RetireTo(a, old)
	return v
}

// reassignAfterFree overwrites the freed name with a fresh block before
// using it; the name is live again. No diagnostic.
func reassignAfterFree(n *fabric.Node, a quiescence.Allocator, g fabric.GPtr) uint64 {
	a.Free(g)
	g = a.Alloc(8)
	return n.AtomicLoad64(g)
}
