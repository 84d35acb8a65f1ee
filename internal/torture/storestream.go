package torture

import (
	"errors"
	"fmt"

	"flacos/internal/fabric"
	"flacos/internal/redis"
)

// storeStream is the single-writer / any-reader RackStore checker under
// every workload that tortures the rack-shared store: each key is a
// register (register.go) whose writer SETs strictly increasing versions,
// readers GET everyone's keys, and the schedule driver crashes (and the
// recovery layers fence) serving nodes mid-SET. Every GET must pass the
// register checker against the floor loaded before it: entry blocks are
// written back before the index publish, so a crash between the two
// leaves the previous intact value in place, never a torn one. The
// quiescent store holds exactly each writer's final value.
//
// What is the store's own: a writer whose node crashed cannot know
// whether its in-flight SET published, so it re-reads the key
// (Registers.resync). Crashed views are fenced (their epoch reservation
// cleared on their behalf) and abandoned; the replacement is a fresh
// Attach. A view fenced at a dead or drained generation never applies
// another write: the SET returns ErrFenced and the writer reattaches.
type storeStream struct {
	store *redis.RackStore
	kpw   int        // keys per writer (per node)
	regs  *Registers // register k is key s.key(k)
}

const redisValBytes = 40

func redisKey(node, j int) string { return fmt.Sprintf("rk-%d-%d", node, j) }

// newStoreStream seeds kpw keys per node at version 1 through node 0.
func newStoreStream(env *Env, store *redis.RackStore, kpw int) *storeStream {
	s := &storeStream{store: store, kpw: kpw}
	s.regs = NewRegisters(env.Fab.NumNodes()*kpw, 1, s.key)
	v0 := s.attach(env, env.Fab.Node(0))
	for k := 0; k < s.regs.Len(); k++ {
		if err := v0.Set(s.key(k), Payload(s.regs.ID(k), 1, redisValBytes), 0); err != nil {
			panic(err)
		}
		s.regs.Commit(k, 1)
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
// versions; ci is its client id and rng stream. Two recovery paths: a
// crash mid-SET makes the applied version uncertain (resync with a GET
// after reattaching), and ErrFenced means a Dead sweep or a proactive
// drain fenced this view's generation — the SET never applied, so
// reattach under the current fence and retry.
func (s *storeStream) writer(env *Env, node, ci int) {
	n := env.Fab.Node(node)
	v := s.attachLoop(env, n)
	rng := env.Rand(uint64(ci))
	needSync := make([]bool, s.kpw)
	for completed := 0; completed < env.Cfg.OpsPerClient; {
		j := rng.Intn(s.kpw)
		k := node*s.kpw + j
		if needSync[j] {
			var synced bool
			if v, synced = s.syncKey(env, n, v, ci, k); !synced {
				continue
			}
			needSync[j] = false
		}
		next := s.regs.Floor(k) + 1
		var err error
		if !env.RunOp(n, func() { err = v.Set(s.key(k), Payload(s.regs.ID(k), next, redisValBytes), 0) }) {
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
		s.regs.Commit(k, next)
		completed++
		env.OpDone()
	}
	// A key whose last SET a crash cut is synced before the writer ends,
	// even if it never picked the key again: its commit is then final.
	for j := range needSync {
		for synced := !needSync[j]; !synced; {
			v, synced = s.syncKey(env, n, v, ci, node*s.kpw+j)
		}
	}
}

// syncKey re-reads key k through v after a crash cut its writer's last
// SET, which either published or did not, and commits what it found
// (Registers.resync). It returns the view to go on with; a crash during
// the read reattaches and returns false, leaving the key unsynced.
func (s *storeStream) syncKey(env *Env, n *fabric.Node, v *redis.View, ci, k int) (*redis.View, bool) {
	var val []byte
	if !env.RunOp(n, func() { val, _ = v.Get(s.key(k)) }) {
		return s.reattach(env, n, v), false
	}
	s.regs.resync(env, ci, k, Decode(val))
	return v, true
}

// reader GETs random keys rack-wide through node's views and checks
// every observation against the floor loaded before the read.
func (s *storeStream) reader(env *Env, node, ci int) {
	n := env.Fab.Node(node)
	v := s.attachLoop(env, n)
	rng := env.Rand(uint64(ci))
	for completed := 0; completed < env.Cfg.OpsPerClient; {
		k := rng.Intn(s.regs.Len())
		f0 := s.regs.Floor(k)
		var val []byte
		if !env.RunOp(n, func() { val, _ = v.Get(s.key(k)) }) {
			v = s.reattach(env, n, v)
			continue
		}
		s.regs.check(env, ci, k, Bounds{Floor: f0}, Decode(val))
		completed++
		env.OpDone()
	}
}

// resync is a joining node's catch-up read: every committed floor must
// be readable and intact through n BEFORE the node serves.
func (s *storeStream) resync(env *Env, n *fabric.Node, ci int) {
	v := s.attach(env, n)
	for k := 0; k < s.regs.Len(); k++ {
		f0 := s.regs.Floor(k)
		val, _ := v.Get(s.key(k))
		s.regs.check(env, ci, k, Bounds{Floor: f0}, Decode(val))
	}
}

// check verifies the quiescent store: every key holds exactly its
// writer's final committed value, intact.
func (s *storeStream) check(env *Env) {
	v0 := s.attach(env, env.Fab.Node(0))
	s.regs.checkFinal(env, "final state", func(k int) (Read, error) {
		val, _ := v0.Get(s.key(k))
		return Decode(val), nil
	})
	v0.Barrier()
}
