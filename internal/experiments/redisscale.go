package experiments

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"flacos/internal/core"
	"flacos/internal/fabric"
	"flacos/internal/flacdk/delegation"
	"flacos/internal/loadgen"
	"flacos/internal/redis"
)

// RedisScaleConfig parameterizes the open-loop RackStore scaling sweep.
type RedisScaleConfig struct {
	// NodeCounts is the scaling axis: each entry runs the workload with
	// that many serving nodes (one worker per node) over ONE shared store.
	NodeCounts []int
	// CombineNodes is the node count at which the combining-vs-baseline
	// throughput gate (>= CombineGate) is enforced.
	CombineNodes int
	// Rounds is barriered measurement rounds per phase.
	Rounds int
	// OpsPerRound is operations per worker per round.
	OpsPerRound int
	// CombineGate is the combining/baseline throughput ratio that must be
	// met at CombineNodes.
	CombineGate float64
}

// DefaultRedisScale is the acceptance setup: 1..16 serving nodes, the
// combining gate at 8 nodes. 1.05x is what combining must prove against
// the hot-key wall alone (contended publishes that retry against each
// other); it measures 1.15x. What one summed IncrBy saves shrinks with
// what an IncrBy costs: the gate was 1.25x when the uncombined publish
// re-walked the index, 1.15x while an IncrBy still paid two atomics to
// read its index slot and one to check the fence (EXPERIMENTS.md has both
// arms, before and after each step, and the measured ratios).
func DefaultRedisScale() RedisScaleConfig {
	return RedisScaleConfig{
		NodeCounts:   []int{1, 2, 4, 8, 16},
		CombineNodes: 8,
		Rounds:       30,
		OpsPerRound:  64,
		CombineGate:  1.05,
	}
}

// QuickRedisScale is the CI-sized sweep: the full run's rounds and ops at
// its three smallest node counts, gated at the largest of them. Fewer
// rounds or ops gather too little fan-in per sweep for the ratio to mean
// anything, and fewer arrivals than 30 x 64 trip the 1-node low-load gate.
func QuickRedisScale() RedisScaleConfig {
	cfg := DefaultRedisScale()
	cfg.NodeCounts, cfg.CombineNodes = []int{1, 2, 4}, 4
	return cfg
}

const (
	// rsKeySpace is the Zipfian keyspace size (ranks); rsSkew its
	// exponent (the YCSB standard).
	rsKeySpace = 64
	rsSkew     = 0.99
	// rsValueBytes sizes data values; it must fit a delegation payload so
	// hot GETs can travel the combining path.
	rsValueBytes = 48
	// rsHotHeat is the decayed per-round access count at which a key is
	// classified hot and routed through the owner's combiner.
	rsHotHeat = 1.5
	// rsCombineDepth is each worker's delegation slots per owner domain:
	// how many hot ops a worker can have in flight per owner per sweep.
	// Depth is what turns per-sweep fan-in from ~1 (nothing to combine)
	// into a round's worth of gathered operations.
	rsCombineDepth = 32
	// rsSeed drives every workload stream; same seed, same workload.
	rsSeed = 1
)

// RedisScale measures RackStore serving capacity as nodes are added, with
// and without hot-key combining, then replays each capacity through the
// open-loop load generator to report latency under offered load:
//
//   - Scaling: the same Zipfian workload (one worker per serving node,
//     weak scaling) at every node count. Under skew 0.99 a handful of keys
//     absorb most writes; the baseline serves them with per-node CAS
//     publishes that retry against each other, so per-node throughput
//     decays as nodes are added — the hot-key wall.
//   - Combining: the identical op stream, but keys classified hot online
//     (flacdk/alloc hotness counters) are routed through flacdk/delegation
//     to the key's owner node, which serves a whole sweep's fan-in with
//     ONE store operation per key: one Get answers every gathered read,
//     one IncrBy of the summed delta answers every gathered increment.
//   - Open loop: measured per-node service times are replayed against a
//     Poisson arrival schedule at fractions of measured capacity. Sojourn
//     time (queueing + service) gives honest p50/p99 under load, and
//     pushing offered load past capacity exposes the saturation knee that
//     closed-loop (barriered) measurement structurally hides.
//   - Integrity: every data read is pattern-checked (torn detection),
//     every worker's counter observations must be monotone (backwards
//     detection), and every counter's final value must equal the exact
//     sum of acknowledged increments (lost/stale-write detection) — the
//     combining path gets no slack on the coherence contract.
//
// It fails on any integrity violation, a combining speedup below
// CombineGate at CombineNodes, or low-load achieved throughput under
// 0.95x offered.
func RedisScale(cfg RedisScaleConfig) *Result {
	res := newResult("Open-loop RackStore scaling: hot-key combining vs per-node CAS",
		"phase", "config", "metric", "value")

	maxNodes := 0
	for _, s := range cfg.NodeCounts {
		if s > maxNodes {
			maxNodes = s
		}
	}
	rack := core.Boot(core.Config{Nodes: maxNodes, RedisViews: 256})
	defer rack.Shutdown()

	res.Bench = &Bench{Name: "redisscale"}
	for _, s := range cfg.NodeCounts {
		config := fmt.Sprintf("%d node(s)", s)
		base := redisScaleServe(rack, cfg, s, false)
		comb := redisScaleServe(rack, cfg, s, true)
		speedup := ratio(comb.opsPerSec, base.opsPerSec)
		res.Table.AddRow("scaling", config, "baseline ops/s (virtual)", fmt.Sprintf("%.0f", base.opsPerSec))
		res.Table.AddRow("scaling", config, "combining ops/s (virtual)", fmt.Sprintf("%.0f", comb.opsPerSec))
		res.Table.AddRow("scaling", config, "combining/baseline", fmt.Sprintf("%.2fx", speedup))
		for _, ph := range []*scalePhase{base, comb} {
			res.Table.AddRow("integrity", config+" "+ph.mode(),
				"stale/torn/backwards", fmt.Sprintf("%d / %d / %d", ph.stale, ph.torn, ph.backwards))
			if v := ph.stale + ph.torn + ph.backwards; v > 0 {
				res.Fail("%s %s: %d stale/torn/backwards observations", config, ph.mode(), v)
			}
		}
		res.Ratios[fmt.Sprintf("combining/baseline @%d nodes", s)] = speedup
		if s == cfg.CombineNodes && speedup < cfg.CombineGate {
			res.Fail("combining reached %.2fx the baseline at %d nodes, want >= %.2fx", speedup, s, cfg.CombineGate)
		}

		// Open-loop replay of the combined capacity at each offered load.
		sweep := openLoop(res, config,
			func(fac float64) string { return fmt.Sprintf("%s %.1fx", config, fac) }, config,
			comb.opsPerSec, comb.opsTotal, comb.meanServiceNS, rsSeed+uint64(s)*1000)
		res.Bench.Rows = append(res.Bench.Rows, sweep...)
		if s == maxNodes {
			res.Bench.OpsPerSec = comb.opsPerSec
			res.Bench.P50NS = float64(sweep[0].P50NS)
			res.Bench.P99NS = float64(sweep[0].P99NS)
		}
	}
	return res
}

// scaleOpKind is one workload operation type.
type scaleOpKind uint8

const (
	opDataSet scaleOpKind = iota // patterned SET on a data key (never delegated)
	opDataGet                    // pattern-checked GET on a data key
	opCtrIncr                    // INCRBY on a counter key
	opCtrGet                     // monotonicity-checked GET on a counter key
)

// scaleOp is one generated operation.
type scaleOp struct {
	kind  scaleOpKind
	id    int
	key   string
	delta int64
	hot   bool
}

// postedOp is one in-flight combined op: which owner's group carries it
// and at which batch index.
type postedOp struct {
	op    scaleOp
	owner int
	idx   int
}

// scalePhase is one (node count, mode) measurement.
type scalePhase struct {
	nodes    int
	combine  bool
	opsTotal int

	makespanNS uint64
	opsPerSec  float64

	stale, torn, backwards int

	// meanServiceNS is each worker node's mean per-op virtual service
	// time, the open-loop replay's service model.
	meanServiceNS []uint64
}

func (p *scalePhase) mode() string {
	if p.combine {
		return "combining"
	}
	return "baseline"
}

// scaleWorker is one serving node's worker: a view (and server) on its own
// node, workload streams, combining plumbing, and per-worker check state.
type scaleWorker struct {
	w    int
	node *fabric.Node
	view *redis.View
	srv  *redis.Server

	zipf    *loadgen.Zipf
	rnd     *loadgen.Rand
	tracker *redis.HotTracker

	comb    *redis.Combiner       // owner side of this node's domain
	clients []*redis.CombineGroup // per owner domain, this worker's slot stripe

	ops     []scaleOp  // this round's generated ops
	hotOps  []scaleOp  // subset routed through the hot phase
	hotNext int        // baseline mode's cursor into hotOps
	hotQ    []scaleOp  // combining mode's pending hot queue (deferrals refill it)
	deferQ  []scaleOp  // ops pushed to the next cycle, stream order
	posted  []postedOp // hot ops in flight awaiting TryComplete (combining mode)

	batch  []byte              // this round's cold RESP batch
	expect []func(redis.Value) // reply checkers, batch order

	lastSeen map[string]int64 // per counter key, highest value observed
	setSeq   uint64

	executed                int
	pendTorn, pendBackwards int // deferred violation counts (flushViolations)
}

// redisScaleServe runs one (node count, mode) phase: cfg.Rounds barriered
// rounds of the seeded Zipfian workload, one worker per serving node, all
// against the one shared store. Rounds are two-phased: cold ops execute as
// ONE RESP batch per worker per round (MSET/MGET/INCRBY through
// Server.ExecuteBatch — the amortized command surface); hot ops run in
// lockstep one-op cycles so the contention being measured actually
// overlaps (baseline) or gathers into combinable sweeps (combining mode).
// No worker ever spin-waits, so per-node virtual time is pure serving work
// and the makespan is an honest capacity measure.
func redisScaleServe(rack *core.Rack, cfg RedisScaleConfig, nodes int, combine bool) *scalePhase {
	f := rack.Fabric
	ph := &scalePhase{nodes: nodes, combine: combine}
	pfx := fmt.Sprintf("%s%d", ph.mode(), nodes)

	var viol struct {
		sync.Mutex
		stale, torn, backwards int
	}
	tally := make([]int64, rsKeySpace) // host-side truth: acknowledged increments per counter id
	const depth = rsCombineDepth

	// One delegation domain per serving node (the owner's combining inbox),
	// depth client slots per worker in each so a sweep gathers a real
	// fan-in instead of at most one op per worker.
	doms := make([]*delegation.Domain, nodes)
	for o := range doms {
		doms[o] = delegation.NewDomain(f, nodes*depth)
	}
	workers := make([]*scaleWorker, nodes)
	for w := range workers {
		view := rack.OS(w).RedisView()
		sw := &scaleWorker{
			w:        w,
			node:     f.Node(w),
			view:     view,
			srv:      redis.NewServer(view),
			zipf:     loadgen.NewZipf(loadgen.NewRand(rsSeed+uint64(w)*7919), rsKeySpace, rsSkew),
			rnd:      loadgen.NewRand(rsSeed + uint64(w)*104729 + 13),
			tracker:  redis.NewHotTracker(0.5, rsHotHeat),
			comb:     redis.NewCombiner(view, doms[w]),
			lastSeen: map[string]int64{},
		}
		sw.clients = make([]*redis.CombineGroup, nodes)
		for o := range sw.clients {
			sw.clients[o] = redis.NewCombineGroup(doms[o], sw.node, w*depth, depth)
		}
		workers[w] = sw
	}

	parallel := func(fn func(sw *scaleWorker)) {
		fanOut(nodes, func(w int) { fn(workers[w]) })
	}
	mark := markClocks(f, nodes)

	for round := 0; round < cfg.Rounds; round++ {
		parallel(func(sw *scaleWorker) { sw.generate(cfg, pfx, tally) })
		parallel(func(sw *scaleWorker) { sw.execBatch(&viol.Mutex, &viol.torn, &viol.backwards) })
		for {
			remaining := false
			for _, sw := range workers {
				if (combine && len(sw.hotQ) > 0) || (!combine && sw.hotNext < len(sw.hotOps)) {
					remaining = true
					break
				}
			}
			if !remaining {
				break
			}
			if combine {
				parallel(func(sw *scaleWorker) { sw.postMany(nodes, depth) })
				parallel(func(sw *scaleWorker) { sw.comb.ServeSweep() })
				parallel(func(sw *scaleWorker) { sw.completeAll(&viol.Mutex, &viol.torn, &viol.backwards) })
			} else {
				parallel(func(sw *scaleWorker) { sw.execHotOne(&viol.Mutex, &viol.torn, &viol.backwards) })
			}
		}
	}

	// Capacity accounting stops here: the ground-truth pass below is
	// checker work, not serving work, and must not pollute the makespan.
	perNode, makespan := mark.since(f)

	// Final ground-truth pass: every counter's value must equal the exact
	// sum of acknowledged increments — a combined increment that was
	// never published (or published twice) lands here as stale.
	finalStale := 0
	v0 := workers[0].view
	for id := 0; id < rsKeySpace; id += 2 {
		want := atomic.LoadInt64(&tally[id])
		if want == 0 {
			continue
		}
		val, ok := v0.Get(counterKey(pfx, id))
		if !ok {
			finalStale++
			continue
		}
		got, err := strconv.ParseInt(string(val), 10, 64)
		if err != nil || got != want {
			finalStale++
		}
	}

	ph.makespanNS = makespan
	ph.meanServiceNS = meanService(perNode, func(w int) int { return workers[w].executed })
	for _, sw := range workers {
		ph.opsTotal += sw.executed
		sw.view.Barrier() // reclaim this phase's replaced blocks
	}
	ph.opsPerSec = opsPerSec(ph.opsTotal, ph.makespanNS)
	ph.stale = viol.stale + finalStale
	ph.torn = viol.torn
	ph.backwards = viol.backwards
	return ph
}

func dataKey(pfx string, id int) string    { return fmt.Sprintf("d-%s-%d", pfx, id) }
func counterKey(pfx string, id int) string { return fmt.Sprintf("c-%s-%d", pfx, id) }

// generate draws this round's ops from the worker's seeded streams and
// splits them into the cold batch and the hot list. Even Zipf ranks are
// counter keys (INCRBY-heavy: the CAS-storm victims combining rescues),
// odd ranks are data keys (patterned SET/GET). Classification is pure
// function of the streams, so baseline and combining phases run the
// IDENTICAL op sequence and differ only in execution path.
func (sw *scaleWorker) generate(cfg RedisScaleConfig, pfx string, tally []int64) {
	sw.tracker.Decay()
	sw.ops = sw.ops[:0]
	sw.hotOps = sw.hotOps[:0]
	sw.hotNext = 0
	sw.hotQ = sw.hotQ[:0]
	for i := 0; i < cfg.OpsPerRound; i++ {
		id := sw.zipf.Next()
		var op scaleOp
		op.id = id
		if id%2 == 0 {
			op.key = counterKey(pfx, id)
			if sw.rnd.Float64() < 0.75 {
				op.kind = opCtrIncr
				op.delta = int64(1 + sw.rnd.Intn(4))
			} else {
				op.kind = opCtrGet
			}
		} else {
			op.key = dataKey(pfx, id)
			if sw.rnd.Float64() < 0.5 {
				op.kind = opDataSet
			} else {
				op.kind = opDataGet
			}
		}
		sw.tracker.Touch(op.key)
		// Hot data SETs stay on the cold path: the combiner delegates reads
		// and increments; full-value writes keep the ordinary publish.
		op.hot = sw.tracker.Hot(op.key) && op.kind != opDataSet
		sw.ops = append(sw.ops, op)
		if op.kind == opCtrIncr {
			atomic.AddInt64(&tally[id], op.delta)
		}
	}

	// Build the cold RESP batch: data SETs gathered into one MSET, data
	// GETs into one MGET, counter ops as INCRBY/GET commands — the
	// single-ExecuteBatch command surface under measurement.
	sw.batch = sw.batch[:0]
	sw.expect = sw.expect[:0]
	var msetArgs [][]byte
	var mgetKeys []string
	var mgetOps []scaleOp
	for _, op := range sw.ops {
		if op.hot {
			sw.hotOps = append(sw.hotOps, op)
			sw.hotQ = append(sw.hotQ, op)
			continue
		}
		switch op.kind {
		case opDataSet:
			sw.setSeq++
			val := patternValue(sw.setSeq, op.key, byte(op.id), rsValueBytes)
			msetArgs = append(msetArgs, []byte(op.key), val)
		case opDataGet:
			mgetKeys = append(mgetKeys, op.key)
			mgetOps = append(mgetOps, op)
		case opCtrIncr:
			sw.batch = redis.AppendCommand(sw.batch, []byte("INCRBY"), []byte(op.key),
				[]byte(strconv.FormatInt(op.delta, 10)))
			sw.expect = append(sw.expect, sw.expectCtr(op.key, true))
		case opCtrGet:
			sw.batch = redis.AppendCommand(sw.batch, []byte("GET"), []byte(op.key))
			sw.expect = append(sw.expect, sw.expectCtr(op.key, false))
		}
	}
	if len(msetArgs) > 0 {
		args := append([][]byte{[]byte("MSET")}, msetArgs...)
		sw.batch = redis.AppendCommand(sw.batch, args...)
		sw.expect = append(sw.expect, func(v redis.Value) {
			if v.IsError() || v.Str != "OK" {
				panic("redisscale: MSET rejected: " + v.Str)
			}
		})
	}
	if len(mgetKeys) > 0 {
		args := [][]byte{[]byte("MGET")}
		for _, k := range mgetKeys {
			args = append(args, []byte(k))
		}
		sw.batch = redis.AppendCommand(sw.batch, args...)
		ops := append([]scaleOp(nil), mgetOps...)
		sw.expect = append(sw.expect, func(v redis.Value) {
			sw.checkMGet(v, ops)
		})
	}
}

// expectCtr returns the reply checker for one counter command. ack
// increments must return strictly larger values than anything this worker
// has observed for the key; reads must never go backwards.
func (sw *scaleWorker) expectCtr(key string, incr bool) func(redis.Value) {
	return func(v redis.Value) {
		if v.IsError() {
			panic("redisscale: counter op rejected: " + v.Str)
		}
		if !incr && v.Bulk == nil {
			return // never written yet
		}
		val := v.Int
		if !incr {
			parsed, err := strconv.ParseInt(string(v.Bulk), 10, 64)
			if err != nil {
				sw.noteTorn()
				return
			}
			val = parsed
		}
		sw.observeCtr(key, val, incr)
	}
}

// observeCtr folds one counter observation into the per-worker
// monotonicity check. Deferred violation counters are summed in
// execBatch/completeOne under the shared lock.
func (sw *scaleWorker) observeCtr(key string, val int64, incr bool) {
	last := sw.lastSeen[key]
	if val < last || (incr && val == last) {
		sw.pendBackwards++
	}
	if val > last {
		sw.lastSeen[key] = val
	}
}

// checkMGet validates one MGET reply array against its keys' patterns.
func (sw *scaleWorker) checkMGet(v redis.Value, ops []scaleOp) {
	if v.IsError() || len(v.Array) != len(ops) {
		panic("redisscale: malformed MGET reply")
	}
	for i, e := range v.Array {
		if e.Bulk == nil {
			continue
		}
		if _, intact := checkPattern(e.Bulk, ops[i].key, byte(ops[i].id)); !intact {
			sw.pendTorn++
		}
	}
}

func (sw *scaleWorker) noteTorn() { sw.pendTorn++ }

// execBatch runs the round's cold batch through the worker's own server
// session and applies the queued reply checks.
func (sw *scaleWorker) execBatch(mu *sync.Mutex, torn, backwards *int) {
	if len(sw.batch) > 0 {
		out := sw.srv.ExecuteBatch(nil, sw.batch)
		rest := out
		for _, check := range sw.expect {
			v, n, err := redis.Decode(rest)
			if err != nil {
				panic(err)
			}
			check(v)
			rest = rest[n:]
		}
	}
	sw.executed += len(sw.ops) - len(sw.hotOps)
	sw.flushViolations(mu, torn, backwards)
}

// execHotOne is the baseline hot path: one hot op per lockstep cycle,
// executed directly on the worker's own view — the contended publish the
// combining mode eliminates.
func (sw *scaleWorker) execHotOne(mu *sync.Mutex, torn, backwards *int) {
	if sw.hotNext >= len(sw.hotOps) {
		return
	}
	op := sw.hotOps[sw.hotNext]
	sw.hotNext++
	switch op.kind {
	case opDataGet:
		if val, ok := sw.view.Get(op.key); ok {
			if _, intact := checkPattern(val, op.key, byte(op.id)); !intact {
				sw.pendTorn++
			}
		}
	case opCtrIncr:
		val, err := sw.view.IncrBy(op.key, op.delta)
		if err != nil {
			panic(err)
		}
		sw.observeCtr(op.key, val, true)
	case opCtrGet:
		if val, ok := sw.view.Get(op.key); ok {
			parsed, err := strconv.ParseInt(string(val), 10, 64)
			if err != nil {
				sw.pendTorn++
			} else {
				sw.observeCtr(op.key, parsed, false)
			}
		}
	}
	sw.executed++
	sw.flushViolations(mu, torn, backwards)
}

// postMany publishes up to depth hot ops per owner domain this cycle
// (owner = key hash mod nodes), in stream order. Everything posted into
// one sweep is pairwise concurrent, the combiner serves sweeps in
// canonical order (increments before reads), and completeAll consumes
// replies in the same canonical order — so mixed INCRBY/GET traffic on
// one key can share a sweep and still observe monotone values. The only
// reason to defer an op to the next cycle is a full owner domain; a
// deferred key blocks its later ops too, preserving per-key program
// order, while ops on other keys keep flowing (the checks are per key,
// so cross-key reordering is unobservable).
func (sw *scaleWorker) postMany(nodes, depth int) {
	sw.posted = sw.posted[:0]
	sw.deferQ = sw.deferQ[:0]
	blocked := make(map[string]bool)
	for _, op := range sw.hotQ {
		o := redis.CombineOwner(op.key, nodes)
		if blocked[op.key] || sw.clients[o].Free() == 0 {
			blocked[op.key] = true
			sw.deferQ = append(sw.deferQ, op)
			continue
		}
		var idx int
		if op.kind == opCtrIncr {
			idx = sw.clients[o].PostIncrBy(op.key, op.delta)
		} else {
			idx = sw.clients[o].PostGet(op.key)
		}
		sw.posted = append(sw.posted, postedOp{op: op, owner: o, idx: idx})
	}
	for _, cg := range sw.clients {
		cg.Flush()
	}
	sw.hotQ, sw.deferQ = append(sw.hotQ[:0], sw.deferQ...), sw.hotQ
}

// completeAll consumes every posted hot op's reply in the sweep's
// canonical serve order — increments first, then reads, each class in
// posted order — so the values this worker folds into its monotonicity
// check arrive in the same order the owner linearized them. The owners
// swept between the barriers, so the replies must be present.
func (sw *scaleWorker) completeAll(mu *sync.Mutex, torn, backwards *int) {
	if len(sw.posted) == 0 {
		return
	}
	touched := make([]bool, len(sw.clients))
	for _, p := range sw.posted {
		if !touched[p.owner] {
			touched[p.owner] = true
			sw.clients[p.owner].Refresh()
		}
	}
	for _, p := range sw.posted {
		if p.op.kind == opCtrIncr {
			sw.completePosted(p)
		}
	}
	for _, p := range sw.posted {
		if p.op.kind != opCtrIncr {
			sw.completePosted(p)
		}
	}
	for o, t := range touched {
		if t {
			sw.clients[o].Recycle()
		}
	}
	sw.posted = sw.posted[:0]
	sw.flushViolations(mu, torn, backwards)
}

// completePosted consumes one posted op's reply from its owner group's
// refreshed snapshot.
func (sw *scaleWorker) completePosted(p postedOp) {
	op, cg := p.op, sw.clients[p.owner]
	switch op.kind {
	case opCtrIncr:
		val, done, err := cg.TryIncr(p.idx)
		if err != nil {
			panic(err)
		}
		if !done {
			panic("redisscale: combined INCRBY not served after owner sweep")
		}
		sw.observeCtr(op.key, val, true)
	case opCtrGet:
		val, ok, done, err := cg.TryGet(p.idx)
		if err != nil {
			panic(err)
		}
		if !done {
			panic("redisscale: combined GET not served after owner sweep")
		}
		if ok {
			parsed, perr := strconv.ParseInt(string(val), 10, 64)
			if perr != nil {
				sw.pendTorn++
			} else {
				sw.observeCtr(op.key, parsed, false)
			}
		}
	case opDataGet:
		val, ok, done, err := cg.TryGet(p.idx)
		if err != nil {
			panic(err)
		}
		if !done {
			panic("redisscale: combined GET not served after owner sweep")
		}
		if ok {
			if _, intact := checkPattern(val, op.key, byte(op.id)); !intact {
				sw.pendTorn++
			}
		}
	}
	sw.executed++
}

// flushViolations folds the worker's deferred violation counts into the
// phase totals.
func (sw *scaleWorker) flushViolations(mu *sync.Mutex, torn, backwards *int) {
	if sw.pendTorn == 0 && sw.pendBackwards == 0 {
		return
	}
	mu.Lock()
	*torn += sw.pendTorn
	*backwards += sw.pendBackwards
	mu.Unlock()
	sw.pendTorn, sw.pendBackwards = 0, 0
}
