package torture

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"flacos/internal/fabric"
	"flacos/internal/redis"
)

// storeStream is the single-writer / any-reader RackStore checker under
// every workload that tortures the rack-shared store: each writer owns
// kpw keys and SETs strictly increasing sequences, readers GET
// everyone's keys, and the schedule driver crashes (and the recovery
// layers fence) serving nodes mid-SET.
//
// Invariants (the redisrack acceptance property under faults):
//   - A GET observed by any survivor never returns a TORN value: entry
//     blocks are written back before the index publish, so a crash
//     between the two leaves the previous intact value in place, never a
//     half-written one.
//   - A GET never goes BACKWARDS: it must carry a sequence >= the
//     highest flush-acknowledged write for that key (host-side committed
//     floor, the same linearizability style dsWorkload uses).
//   - Keys never vanish (no stream deletes), a view fenced at a dead or
//     drained generation never applies another write, and the quiescent
//     final state holds exactly each writer's last committed value.
//
// A writer whose node crashed cannot know whether its in-flight SET
// published, so it re-reads the key and adopts whichever of {committed,
// attempted} sequence it finds — the same resync protocol as dsWorkload's
// mapWriter. Crashed views are fenced (their epoch reservation cleared on
// their behalf) and abandoned; the replacement is a fresh Attach.
type storeStream struct {
	store *redis.RackStore
	kpw   int // keys per writer (per node)

	floors   []atomic.Uint64 // per key: committed (flush-acknowledged) seq
	finalVer []uint64        // per key: writer's final committed seq (0: never served)
}

const redisValBytes = 40 // 8-byte seq + 32 pattern bytes

func redisKey(node, j int) string { return fmt.Sprintf("rk-%d-%d", node, j) }

func redisVal(keyIdx int, seq uint64) []byte {
	v := make([]byte, redisValBytes)
	binary.LittleEndian.PutUint64(v, seq)
	for i := 8; i < redisValBytes; i++ {
		v[i] = byte(seq*13 + uint64(keyIdx)*7 + uint64(i))
	}
	return v
}

// redisDecode returns the sequence a value carries and whether every
// byte matches the pattern for it (false = torn or corrupt).
func redisDecode(keyIdx int, v []byte) (seq uint64, intact bool) {
	if len(v) != redisValBytes {
		return 0, false
	}
	seq = binary.LittleEndian.Uint64(v)
	for i := 8; i < redisValBytes; i++ {
		if v[i] != byte(seq*13+uint64(keyIdx)*7+uint64(i)) {
			return seq, false
		}
	}
	return seq, true
}

// newStoreStream seeds kpw keys per node at sequence 1 through node 0.
func newStoreStream(env *Env, store *redis.RackStore, kpw int) *storeStream {
	keys := env.Cfg.Nodes * kpw
	s := &storeStream{
		store:    store,
		kpw:      kpw,
		floors:   make([]atomic.Uint64, keys),
		finalVer: make([]uint64, keys),
	}
	v0 := s.attach(env, env.Fab.Node(0))
	for k := 0; k < keys; k++ {
		if err := v0.Set(s.key(k), redisVal(k, 1), 0); err != nil {
			panic(err)
		}
		s.floors[k].Store(1)
	}
	v0.Barrier()
	return s
}

func (s *storeStream) key(keyIdx int) string { return redisKey(keyIdx/s.kpw, keyIdx%s.kpw) }

// attach creates a view with the flight recorder wired in (SET/GET spans
// land in failing sweeps' timelines).
func (s *storeStream) attach(env *Env, n *fabric.Node) *redis.View {
	v := s.store.Attach(n)
	if env.Trace != nil {
		v.SetTrace(env.Trace.Writer(n.ID()))
	}
	return v
}

// attachLoop attaches on n, riding out crashes that land before or
// during the attach itself (the fault driver does not wait for clients
// to reach a safe point).
func (s *storeStream) attachLoop(env *Env, n *fabric.Node) *redis.View {
	for {
		var v *redis.View
		if env.RunOp(n, func() { v = s.attach(env, n) }) {
			return v
		}
		env.WaitAlive(n)
	}
}

// reattach abandons a view whose node crashed: wait for the restart,
// clear the dead view's epoch reservation from node 0 (never crashed, so
// the fence cannot itself die mid-fence; a Dead sweep also does this for
// the node's tracked views, but the explicit fence keeps the store
// reclaimable when a restart beats detection), and attach fresh under
// the current fence level.
func (s *storeStream) reattach(env *Env, n *fabric.Node, dead *redis.View) *redis.View {
	env.WaitAlive(n)
	s.store.FenceView(env.Fab.Node(0), dead.ID())
	return s.attachLoop(env, n)
}

// writer owns keys [node*kpw, node*kpw+kpw) and SETs strictly increasing
// sequences; ci is its client id and rng stream. Two recovery paths: a
// crash mid-SET makes the applied sequence uncertain (resync with a GET
// after reattaching), and ErrFenced means a Dead sweep or a proactive
// drain fenced this view's generation — the SET never applied, so
// reattach under the current fence and retry.
func (s *storeStream) writer(env *Env, node, ci int) {
	n := env.Fab.Node(node)
	v := s.attachLoop(env, n)
	rng := env.Rand(uint64(ci))
	vers := make([]uint64, s.kpw)
	needSync := make([]bool, s.kpw)
	for j := range vers {
		vers[j] = 1
	}
	for completed := 0; completed < env.Cfg.OpsPerClient; {
		j := rng.Intn(s.kpw)
		keyIdx := node*s.kpw + j
		key := s.key(keyIdx)
		if needSync[j] {
			var synced bool
			if v, vers[j], synced = s.syncKey(env, n, v, ci, keyIdx, vers[j]); !synced {
				continue
			}
			needSync[j] = false
		}
		next := vers[j] + 1
		var err error
		if !env.RunOp(n, func() { err = v.Set(key, redisVal(keyIdx, next), 0) }) {
			// Crashed mid-SET: the publish either landed or it didn't.
			needSync[j] = true
			v = s.reattach(env, n, v)
			continue
		}
		if errors.Is(err, redis.ErrFenced) {
			// The zombie path worked as designed: this view carried a
			// generation the rack fenced. Nothing applied.
			v = s.attachLoop(env, n)
			continue
		}
		if err != nil {
			panic(err)
		}
		vers[j] = next
		s.floors[keyIdx].Store(next)
		completed++
		env.OpDone()
	}
	// A key whose last SET a crash cut is synced before its sequence is
	// recorded as final, even if the writer never picked it again.
	for j := range vers {
		for synced := !needSync[j]; !synced; {
			v, vers[j], synced = s.syncKey(env, n, v, ci, node*s.kpw+j, vers[j])
		}
		s.finalVer[node*s.kpw+j] = vers[j]
	}
}

// syncKey re-reads key keyIdx through v after a crash cut its writer's
// last SET, which either published or did not, and returns the view to
// go on with and the sequence it found as the key's new committed floor:
// committed or committed+1, anything else a violation. A crash during the
// read reattaches and returns false, leaving the key unsynced.
func (s *storeStream) syncKey(env *Env, n *fabric.Node, v *redis.View, ci, keyIdx int, committed uint64) (*redis.View, uint64, bool) {
	key := s.key(keyIdx)
	var val []byte
	var ok bool
	if !env.RunOp(n, func() { val, ok = v.Get(key) }) {
		return s.reattach(env, n, v), committed, false
	}
	seq, intact := uint64(0), false
	if ok {
		seq, intact = redisDecode(keyIdx, val)
	}
	if !ok || !intact || seq < committed || seq > committed+1 {
		env.Violatef(ci, "key %s: resync read seq=%d ok=%v intact=%v, committed=%d", key, seq, ok, intact, committed)
		seq = committed
	}
	s.floors[keyIdx].Store(seq)
	return v, seq, true
}

// reader GETs random keys rack-wide through node's views and checks
// every observation against the floor loaded before the read.
func (s *storeStream) reader(env *Env, node, ci int) {
	n := env.Fab.Node(node)
	v := s.attachLoop(env, n)
	rng := env.Rand(uint64(ci))
	for completed := 0; completed < env.Cfg.OpsPerClient; {
		keyIdx := rng.Intn(len(s.floors))
		f0 := s.floors[keyIdx].Load()
		var val []byte
		var ok bool
		if !env.RunOp(n, func() { val, ok = v.Get(s.key(keyIdx)) }) {
			v = s.reattach(env, n, v)
			continue
		}
		s.observe(env, ci, keyIdx, f0, val, ok)
		completed++
		env.OpDone()
	}
}

// observe checks one GET result against the committed floor f0 loaded
// before the read began: present, intact, and not behind the floor.
func (s *storeStream) observe(env *Env, ci, keyIdx int, f0 uint64, val []byte, ok bool) {
	key := s.key(keyIdx)
	if !ok {
		env.Violatef(ci, "key %s: vanished (committed floor %d)", key, f0)
	} else if seq, intact := redisDecode(keyIdx, val); !intact {
		env.Violatef(ci, "key %s: torn value (carries seq %d)", key, seq)
	} else if seq < f0 {
		env.Violatef(ci, "key %s: went backwards: read seq %d after committed %d", key, seq, f0)
	}
}

// resync is a joining node's catch-up read: every committed floor must
// be readable and intact through n BEFORE the node serves.
func (s *storeStream) resync(env *Env, n *fabric.Node, ci int) {
	v := s.attach(env, n)
	for k := range s.floors {
		f0 := s.floors[k].Load()
		val, ok := v.Get(s.key(k))
		s.observe(env, ci, k, f0, val, ok)
	}
}

// check verifies the quiescent store: every key holds exactly its
// writer's final committed value, intact.
func (s *storeStream) check(env *Env) {
	v0 := s.attach(env, env.Fab.Node(0))
	for k, want := range s.finalVer {
		if want == 0 {
			continue // writer bailed before serving (already recorded)
		}
		val, ok := v0.Get(s.key(k))
		if !ok {
			env.Violatef(-1, "final state: key %s missing, want seq %d", s.key(k), want)
			continue
		}
		if seq, intact := redisDecode(k, val); !intact || seq != want {
			env.Violatef(-1, "final state: key %s seq=%d intact=%v, want %d", s.key(k), seq, intact, want)
		}
	}
	v0.Barrier()
}
