package torture

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"

	"flacos/internal/flacdk/ds"
)

// dsWorkload tortures the FlacDK shared data structures: a hash table
// driven by per-key single-writer version counters, and a ring of SPSC
// rings carrying checksummed messages between neighbor nodes.
//
// Invariants (linearizability-style over concurrent client histories):
//   - hash table: single-writer per key, so any Get must return a version
//     >= the highest version whose Put/CAS completed before the Get began
//     (tracked as a host-side committed floor) — per-key monotonicity;
//     writer CAS from a synced version must succeed. The CAS goes through
//     a slot handle (Find, then CompareAndSwapAt), so every fault sweep
//     covers the handle path: Find must see the writer's own last version.
//   - ring: strict FIFO with no loss and no duplication (publication is
//     the producer's last fabric op, so a crashed push never half-lands),
//     and every payload matches the pattern derived from its sequence
//     number — a consumer that skips its invalidate reads a stale lap and
//     fails both checks.
type dsWorkload struct {
	hm    *ds.HashMap
	rings []*ds.SPSCRing // rings[i]: producer node i -> consumer node (i+1)%N

	floors   []atomic.Uint64 // per key (1-based), committed version floor
	finalVer []uint64        // per key, writer's final version
	ringDead []atomic.Bool   // consumer i aborted (too many violations)
	kpw      int             // keys per writer
}

func newDSWorkload() *dsWorkload { return &dsWorkload{kpw: 4} }

func (w *dsWorkload) Name() string { return "ds" }

// Tolerates: the hash table is pure fabric atomics, but ring payloads are
// cached data, which silent corruption and dropped write-backs can
// legitimately destroy — those classes are out of contract here.
func (w *dsWorkload) Tolerates() FaultClass { return FaultCrash | FaultDegrade }

const ringMsgBytes = 24 // 8-byte seq + 16 pattern bytes

func ringPattern(ring int, seq uint64, k int) byte {
	return byte(seq*31 + uint64(ring)*17 + uint64(k)*7)
}

func fillRingMsg(buf []byte, ring int, seq uint64) {
	binary.LittleEndian.PutUint64(buf, seq)
	for k := 8; k < ringMsgBytes; k++ {
		buf[k] = ringPattern(ring, seq, k)
	}
}

func (w *dsWorkload) Prepare(env *Env) {
	n := env.Cfg.Nodes
	keys := n * w.kpw
	w.hm = ds.NewHashMap(env.Fab, uint64(keys)*8+64)
	w.floors = make([]atomic.Uint64, keys)
	w.finalVer = make([]uint64, keys)
	n0 := env.Fab.Node(0)
	for k := 1; k <= keys; k++ {
		w.hm.Put(n0, uint64(k), 1)
		w.floors[k-1].Store(1)
	}
	w.rings = make([]*ds.SPSCRing, n)
	w.ringDead = make([]atomic.Bool, n)
	for i := 0; i < n; i++ {
		w.rings[i] = ds.NewSPSCRing(env.Fab, 8, ringMsgBytes)
	}
}

func (w *dsWorkload) Clients(env *Env) []func() {
	var out []func()
	for i := 0; i < env.Cfg.Nodes; i++ {
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
// with a Get before continuing.
func (w *dsWorkload) mapWriter(env *Env, node int) {
	n := env.Fab.Node(node)
	rng := env.Rand(uint64(0x10 + node))
	ci := 0x100 + node
	vers := make([]uint64, w.kpw)
	needSync := make([]bool, w.kpw)
	for j := range vers {
		vers[j] = 1
	}
	for completed := 0; completed < env.Cfg.OpsPerClient; {
		j := rng.Intn(w.kpw)
		key := uint64(node*w.kpw + j + 1)
		if needSync[j] {
			var v uint64
			var ok bool
			if !RunOp(n, func() { v, ok = w.hm.Get(n, key) }) {
				WaitAlive(n)
				continue
			}
			if !ok || v < vers[j] {
				env.Violatef(ci, "key %d: resync read v=%d ok=%v below committed %d", key, v, ok, vers[j])
				v = vers[j]
			}
			vers[j] = v
			needSync[j] = false
		}
		next := vers[j] + 1
		useCAS := rng.Intn(2) == 0
		casOK := true
		if !RunOp(n, func() {
			if useCAS {
				slot, cur, ok := w.hm.Find(n, key)
				casOK = ok && cur == vers[j] && w.hm.CompareAndSwapAt(n, slot, cur, next)
			} else {
				w.hm.Put(n, key, next)
			}
		}) {
			needSync[j] = true
			WaitAlive(n)
			continue
		}
		if !casOK {
			env.Violatef(ci, "key %d: single-writer read-then-CAS %d->%d lost", key, vers[j], next)
			needSync[j] = true
			continue
		}
		vers[j] = next
		w.floors[key-1].Store(next)
		completed++
		env.OpDone()
	}
	for j := range vers {
		w.finalVer[node*w.kpw+j] = vers[j]
	}
}

// mapReader reads random keys and checks per-key monotonicity against the
// committed floor loaded before the read began.
func (w *dsWorkload) mapReader(env *Env, node int) {
	n := env.Fab.Node(node)
	rng := env.Rand(uint64(0x20 + node))
	ci := 0x200 + node
	keys := len(w.floors)
	for completed := 0; completed < env.Cfg.OpsPerClient; {
		key := uint64(rng.Intn(keys) + 1)
		v0 := w.floors[key-1].Load()
		var v uint64
		var ok bool
		if !RunOp(n, func() { v, ok = w.hm.Get(n, key) }) {
			WaitAlive(n)
			continue
		}
		if !ok {
			env.Violatef(ci, "key %d: vanished (committed floor %d)", key, v0)
		} else if v < v0 {
			env.Violatef(ci, "key %d: non-monotonic read %d after committed %d", key, v, v0)
		}
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
		fillRingMsg(buf, node, seq)
		for {
			if w.ringDead[node].Load() {
				return // consumer gave up (break-catching run): don't spin on a full ring
			}
			pushed := false
			if !RunOp(n, func() { pushed = r.TryPush(n, buf) }) {
				WaitAlive(n)
				continue
			}
			if pushed {
				break
			}
			runtime.Gosched() // ring full: consumer is behind (or down)
		}
		env.OpDone()
	}
}

// ringConsumer drains ring (node-1+N)%N, checking strict FIFO and the
// per-sequence payload pattern.
func (w *dsWorkload) ringConsumer(env *Env, node int) {
	ringID := (node - 1 + env.Cfg.Nodes) % env.Cfg.Nodes
	n := env.Fab.Node(node)
	r := w.rings[ringID]
	ci := 0x400 + node
	buf := make([]byte, ringMsgBytes)
	myViols := 0
	expected := uint64(1)
	ops := uint64(env.Cfg.OpsPerClient)
	for expected <= ops {
		var ln int
		var ok bool
		if !RunOp(n, func() { ln, ok = r.TryPop(n, buf) }) {
			WaitAlive(n)
			continue
		}
		if !ok {
			runtime.Gosched()
			continue
		}
		bad := false
		if ln != ringMsgBytes {
			env.Violatef(ci, "ring %d: message length %d, want %d", ringID, ln, ringMsgBytes)
			bad = true
		}
		seq := binary.LittleEndian.Uint64(buf)
		if seq != expected {
			env.Violatef(ci, "ring %d: FIFO broken: got seq %d, want %d", ringID, seq, expected)
			bad = true
		}
		for k := 8; k < ringMsgBytes && !bad; k++ {
			if buf[k] != ringPattern(ringID, seq, k) {
				env.Violatef(ci, "ring %d: stale/corrupt payload for seq %d at byte %d", ringID, seq, k)
				bad = true
			}
		}
		if bad {
			if myViols++; myViols > 16 {
				env.Violatef(ci, "ring %d: aborting consumer after %d violations", ringID, myViols)
				w.ringDead[ringID].Store(true)
				return
			}
			if seq >= expected {
				expected = seq + 1 // resync forward so the run terminates
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
	for k := 1; k <= len(w.finalVer); k++ {
		want := w.finalVer[k-1]
		got, ok := w.hm.Get(n0, uint64(k))
		if !ok || got != want {
			env.Violatef(-1, "final state: key %d = %d (present=%v), want %d", k, got, ok, want)
		}
	}
}
