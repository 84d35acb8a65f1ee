package ds_test

import (
	"testing"
	"testing/quick"

	"flacos/internal/flacdk/alloc"
	"flacos/internal/flacdk/ds"
)

// radixOp is one model-checked operation; testing/quick generates random
// sequences of them.
type radixOp struct {
	Kind uint8
	Key  uint16
	Val  uint16
}

// TestRadixQuickModel checks random cross-node op sequences against a
// plain Go map model: Put/Swap return values, Get, Delete, and both the
// succeeding and failing arms of CompareAndSwap must agree with the model
// at every step.
func TestRadixQuickModel(t *testing.T) {
	prop := func(ops []radixOp) bool {
		const nodes = 3
		f := rack(t, nodes, 16)
		arena := alloc.NewArena(f, 8<<20)
		as := make([]*alloc.NodeAllocator, nodes)
		for i := range as {
			as[i] = arena.NodeAllocator(f.Node(i), 0)
		}
		tree := ds.NewRadixTree(f, as[0])
		model := make(map[uint64]uint64)
		for i, op := range ops {
			n := f.Node(i % nodes)
			a := as[i%nodes]
			key := uint64(op.Key)
			val := uint64(op.Val) + 1 // the tree reserves 0 for "absent"
			switch op.Kind % 4 {
			case 0:
				if old := tree.Put(n, a, key, val); old != model[key] {
					t.Logf("op %d: Put(%d) displaced %d, model had %d", i, key, old, model[key])
					return false
				}
				model[key] = val
			case 1:
				if got := tree.Get(n, key); got != model[key] {
					t.Logf("op %d: Get(%d) = %d, model has %d", i, key, got, model[key])
					return false
				}
			case 2:
				if old := tree.Delete(n, key); old != model[key] {
					t.Logf("op %d: Delete(%d) returned %d, model had %d", i, key, old, model[key])
					return false
				}
				delete(model, key)
			case 3:
				cur := model[key]
				if op.Val%2 == 0 {
					if !tree.CompareAndSwap(n, a, key, cur, val) {
						t.Logf("op %d: CAS(%d, %d->%d) failed against matching current", i, key, cur, val)
						return false
					}
					model[key] = val
				} else if tree.CompareAndSwap(n, a, key, cur+12345, val) {
					t.Logf("op %d: CAS(%d) succeeded with wrong expected value", i, key)
					return false
				}
			}
		}
		// Final sweep: the whole key space agrees with the model.
		n0 := f.Node(0)
		for key, want := range model {
			if tree.Get(n0, key) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
