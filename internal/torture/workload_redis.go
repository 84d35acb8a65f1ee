package torture

import "flacos/internal/redis"

// redisWorkload tortures the rack-shared Redis store (internal/redis
// RackStore) on its own: every node runs one storeStream writer over its
// own keys and one reader over everyone's keys, while the schedule
// driver crashes serving nodes mid-SET. No recovery layer runs here, so
// no view is ever generation-fenced; the invariants are storeStream's.
type redisWorkload struct {
	stream *storeStream
}

func newRedisWorkload() *redisWorkload { return &redisWorkload{} }

func (w *redisWorkload) Name() string { return "redisrack" }

// Tolerates: the index and clocks are pure fabric atomics, but entry
// payloads are cached data pushed home by explicit write-backs — silent
// corruption and dropped write-backs legitimately destroy them, so those
// classes are out of contract (exactly like dsWorkload's ring payloads).
func (w *redisWorkload) Tolerates() FaultClass { return FaultCrash | FaultDegrade }

func (w *redisWorkload) Prepare(env *Env) {
	const kpw = 4
	w.stream = newStoreStream(env, redis.NewRackStore(env.Fab, redis.RackStoreConfig{
		Slots: uint64(env.Cfg.Nodes*kpw) * 8,
		// Every crash abandons the victim node's views; size for the
		// worst-case reattach churn of the whole sweep.
		MaxViews:   2*env.Cfg.Nodes*(env.Cfg.Events+2) + 8,
		ArenaBytes: 16 << 20,
	}), kpw)
}

func (w *redisWorkload) Clients(env *Env) []func() {
	var out []func()
	for i := 0; i < env.Cfg.Nodes; i++ {
		node := i
		out = append(out,
			func() { w.stream.writer(env, node, 0x500+node) },
			func() { w.stream.reader(env, node, 0x600+node) },
		)
	}
	return out
}

func (w *redisWorkload) Check(env *Env) { w.stream.check(env) }
