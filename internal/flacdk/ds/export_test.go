package ds

import "flacos/internal/fabric"

// WalkEntries is how many entries a node's radix walk cache holds.
const WalkEntries = walkEntries

// Root returns the root table's address.
func (t *RadixTree) Root() fabric.GPtr { return t.rootG }

// Levels returns the number of 8-bit levels.
func (t *RadixTree) Levels() int { return radixLevels }

// Cap returns the ring's slot capacity.
func (r *SPSCRing) Cap() uint64 { return r.capacity }

// Put maps key -> value (value 0 erases). Returns the previous value.
func (t *RadixTree) Put(n *fabric.Node, a Allocator, key, value uint64) uint64 {
	t.checkKey(key)
	leaf := t.descend(n, a, key)
	return n.Swap64(leaf, value)
}
