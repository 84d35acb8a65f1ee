package torture

import (
	"fmt"
	"sync/atomic"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
)

// dsWorkload tortures the FlacDK shared data structures: a hash table
// whose keys are single-writer registers, and a ring of SPSC rings
// carrying register payloads between neighbor nodes.
//
// Invariants (register.go's checker over concurrent client histories):
//   - hash table: each key's value is its register's header word, so a
//     Get must find it present, about the right key, and at or above the
//     version committed before the Get began; writer CAS from a synced
//     version must succeed. The CAS goes through a slot handle (Find,
//     then CompareAndSwapAt), so every fault sweep covers the handle
//     path: Find must see the writer's own last version.
//   - ring: each ring is one register whose payloads must arrive intact
//     and in strict FIFO order, with no loss and no duplication
//     (publication is the producer's last fabric op, so a crashed push
//     never half-lands) — a consumer that skips its invalidate reads a
//     stale lap and fails both checks.
type dsWorkload struct {
	hm    *ds.HashMap
	keys  *Registers     // register k-1 is key k
	rings []*ds.SPSCRing // rings[i]: producer node i -> consumer node (i+1)%N
	msgs  *Registers     // register i is ring i's message stream

	ringDead []atomic.Bool // consumer i aborted (too many violations)
	kpw      int           // keys per writer
}

func newDSWorkload() *dsWorkload { return &dsWorkload{kpw: 4} }

func (w *dsWorkload) Name() string { return "ds" }

// Tolerates: the hash table is pure fabric atomics, but ring payloads are
// cached data, which silent corruption and dropped write-backs can
// legitimately destroy — those classes are out of contract here.
func (w *dsWorkload) Tolerates() FaultClass { return FaultCrash | FaultDegrade }

const ringMsgBytes = 24 // header + 16 body bytes

func (w *dsWorkload) Prepare(env *Env) {
	n := env.Fab.NumNodes()
	keys := n * w.kpw
	w.hm = ds.NewHashMap(env.Fab, uint64(keys)*8+64)
	w.keys = NewRegisters(keys, 1, func(r int) string { return fmt.Sprintf("key %d", r+1) })
	n0 := env.Fab.Node(0)
	for r := 0; r < keys; r++ {
		w.hm.Put(n0, uint64(r+1), Word(w.keys.ID(r), 1))
		w.keys.Commit(r, 1)
	}
	w.msgs = NewRegisters(n, 1, func(r int) string { return fmt.Sprintf("ring %d", r) })
	w.rings = make([]*ds.SPSCRing, n)
	w.ringDead = make([]atomic.Bool, n)
	for i := 0; i < n; i++ {
		w.rings[i] = ds.NewSPSCRing(env.Fab, 8, ringMsgBytes)
	}
}

func (w *dsWorkload) Clients(env *Env) []func() {
	var out []func()
	for i := 0; i < env.Fab.NumNodes(); i++ {
		node := i
		out = append(out,
			func() { w.mapWriter(env, node) },
			func() { w.mapReader(env, node) },
			func() { w.ringProducer(env, node) },
			func() { w.ringConsumer(env, node) },
		)
	}
	return out
}

// mapWriter owns keys [node*kpw+1, node*kpw+kpw] and bumps their versions
// with alternating Put and read-then-CAS at the slot the read found. A
// crash mid-op makes the applied version uncertain, so the writer resyncs
// with a Get before continuing, also for a key it does not pick again.
func (w *dsWorkload) mapWriter(env *Env, node int) {
	n := env.Fab.Node(node)
	rng := env.Rand(uint64(0x10 + node))
	ci := 0x100 + node
	needSync := make([]bool, w.kpw)
	resync := func(r int) bool {
		var v uint64
		if !env.RunOp(n, func() { v, _ = w.hm.Get(n, uint64(r+1)) }) {
			env.WaitAlive(n)
			return false
		}
		w.keys.resync(env, ci, r, DecodeWord(v))
		return true
	}
	for completed := 0; completed < env.Cfg.OpsPerClient; {
		j := rng.Intn(w.kpw)
		r := node*w.kpw + j
		key := uint64(r + 1)
		if needSync[j] {
			if !resync(r) {
				continue
			}
			needSync[j] = false
		}
		cur := w.keys.Floor(r)
		next := cur + 1
		old, val := Word(w.keys.ID(r), cur), Word(w.keys.ID(r), next)
		useCAS := rng.Intn(2) == 0
		casOK := true
		if !env.RunOp(n, func() {
			if useCAS {
				slot, got, ok := w.hm.Find(n, key)
				casOK = ok && got == old && w.hm.CompareAndSwapAt(n, slot, got, val)
			} else {
				w.hm.Put(n, key, val)
			}
		}) {
			needSync[j] = true
			env.WaitAlive(n)
			continue
		}
		if !casOK {
			env.Violatef(ci, "key %d: single-writer read-then-CAS %d->%d lost", key, cur, next)
			needSync[j] = true
			continue
		}
		w.keys.Commit(r, next)
		completed++
		env.OpDone()
	}
	for j := range needSync {
		for needSync[j] {
			needSync[j] = !resync(node*w.kpw + j)
		}
	}
}

// mapReader reads random keys and checks each against the committed
// floor loaded before the read began.
func (w *dsWorkload) mapReader(env *Env, node int) {
	n := env.Fab.Node(node)
	rng := env.Rand(uint64(0x20 + node))
	ci := 0x200 + node
	for completed := 0; completed < env.Cfg.OpsPerClient; {
		r := rng.Intn(w.keys.Len())
		f0 := w.keys.Floor(r)
		var v uint64
		if !env.RunOp(n, func() { v, _ = w.hm.Get(n, uint64(r+1)) }) {
			env.WaitAlive(n)
			continue
		}
		w.keys.check(env, ci, r, Bounds{Floor: f0}, DecodeWord(v))
		completed++
		env.OpDone()
	}
}

// ringProducer pushes OpsPerClient sequenced messages into its ring. The
// tail publication is TryPush's last fabric op, so a crashed push either
// fully landed (the op then reports complete) or left nothing visible —
// retrying is exact, never duplicating.
func (w *dsWorkload) ringProducer(env *Env, node int) {
	n := env.Fab.Node(node)
	r := w.rings[node]
	buf := make([]byte, ringMsgBytes)
	for seq := uint64(1); seq <= uint64(env.Cfg.OpsPerClient); seq++ {
		PutPayload(buf, w.msgs.ID(node), seq)
		dead := false
		// A full ring waits for the consumer, which is behind (or down).
		for !env.RunOp(n, func() {
			n.Await(fabric.Wait{Site: "torture.ringProducer", Arg: seq}, func() (uint64, bool) {
				dead = w.ringDead[node].Load()
				return 0, dead || r.TryPush(n, buf)
			})
		}) {
			env.WaitAlive(n)
		}
		if dead {
			return // consumer gave up (break-catching run): don't wait on a full ring
		}
		env.OpDone()
	}
}

// ringConsumer drains ring (node-1+N)%N: each message must be exactly
// the next version of the ring's register.
func (w *dsWorkload) ringConsumer(env *Env, node int) {
	ringID := (node - 1 + env.Fab.NumNodes()) % env.Fab.NumNodes()
	n := env.Fab.Node(node)
	r := w.rings[ringID]
	ci := 0x400 + node
	buf := make([]byte, ringMsgBytes)
	myViols := 0
	expected := uint64(1)
	ops := uint64(env.Cfg.OpsPerClient)
	for expected <= ops {
		var ln int
		if !env.RunOp(n, func() { ln = r.Pop(n, buf) }) {
			env.WaitAlive(n)
			continue
		}
		got := Decode(buf[:ln])
		if w.msgs.check(env, ci, ringID, Bounds{Floor: expected, Ceil: expected}, got) != OK {
			if myViols++; myViols > 16 {
				env.Violatef(ci, "ring %d: aborting consumer after %d violations", ringID, myViols)
				w.ringDead[ringID].Store(true)
				return
			}
			if got.Ver >= expected {
				expected = got.Ver + 1 // resync forward so the run terminates
			}
			continue
		}
		expected++
		env.OpDone()
	}
}

// Check verifies the quiescent map state: every key holds exactly its
// writer's final committed version.
func (w *dsWorkload) Check(env *Env) {
	n0 := env.Fab.Node(0)
	w.keys.checkFinal(env, "final state", func(r int) (Read, error) {
		v, _ := w.hm.Get(n0, uint64(r+1))
		return DecodeWord(v), nil
	})
}
