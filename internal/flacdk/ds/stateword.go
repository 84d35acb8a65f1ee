package ds

import "flacos/internal/fabric"

// StateWord is a slot's identity and lifecycle in one fabric word:
// membership's and health's control words and sched's task-slot word.
//
//	gen(32) | aux(16) | owner(8) | state(8)
//
// gen advances once per occupancy of the slot and aux is the layer's own
// counter (membership's incarnation, sched's attempt), so a holder of an
// older word can no longer win a CAS64 against it; owner is the node in
// the slot. S is the layer's state type, so one layer's states never pack
// into another's word.
type StateWord[S ~uint8] uint64

// PackState packs a state word, keeping gen's low 32 bits, aux's low 16
// and owner's low 8.
func PackState[S ~uint8](gen, aux uint64, owner int, state S) StateWord[S] {
	return StateWord[S](gen<<32 | (aux&0xffff)<<16 | uint64(owner&0xff)<<8 | uint64(state))
}

func (w StateWord[S]) Gen() uint64 { return uint64(w) >> 32 }
func (w StateWord[S]) Aux() uint64 { return uint64(w) >> 16 & 0xffff }
func (w StateWord[S]) Owner() int  { return int(w >> 8 & 0xff) }
func (w StateWord[S]) State() S    { return S(w & 0xff) }

// stateLine is one slot of a StateTable. It takes fabric atomics only: a
// plainly written neighbour's write-back would clobber a word a concurrent
// CAS just committed.
//
//flac:shared
//flac:published-by=CAS64
type stateLine struct {
	Word uint64 // the slot's StateWord
	_    [7]uint64
}

// StateTable is one stateLine per slot; every slot starts at the zero word.
type StateTable[S ~uint8] struct{ base fabric.GPtr }

// NewStateTable reserves a table of slots lines in f's global memory.
func NewStateTable[S ~uint8](f *fabric.Fabric, slots int) StateTable[S] {
	return StateTable[S]{f.Reserve(uint64(slots)*fabric.LineSize, fabric.LineSize)}
}

func (t StateTable[S]) word(slot int) fabric.GPtr { return t.base.Add(uint64(slot) * fabric.LineSize) }

// Load reads slot's state word.
func (t StateTable[S]) Load(n *fabric.Node, slot int) StateWord[S] {
	return StateWord[S](n.AtomicLoad64(t.word(slot)))
}

// Transition moves slot's word from old to next with one CAS64, which
// exactly one of any number of racing contenders wins.
func (t StateTable[S]) Transition(n *fabric.Node, slot int, old, next StateWord[S]) bool {
	return n.CAS64(t.word(slot), uint64(old), uint64(next))
}
