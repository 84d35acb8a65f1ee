package main

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"flacos/internal/fabric"
	"flacos/internal/loadgen"
	"flacos/internal/redis"
)

// rackStoreConfig sizes the rack-shared store workloads: one RackStore in
// the global arena, one View per serving node, every node's closed loop
// issuing straight into its View (no transport).
type rackStoreConfig struct {
	nodes      int
	keys       int // preloaded; a power of two
	valueBytes int
	ops        int // measured
	warm       int // unmeasured ops of the same mix, after the preload
	cacheLines int
	// Cumulative shares of GET, SET and INCRBY; DEL takes the rest.
	get, set, incr float64
}

const (
	opGet = iota
	opSet
	opIncr
	opDel
)

// stamp fills buf with the value version ver of key carries: the key and
// version in the first two words, then a pattern only that pair produces.
func stamp(buf []byte, key int, ver uint64) {
	binary.LittleEndian.PutUint64(buf, uint64(key))
	binary.LittleEndian.PutUint64(buf[8:], ver)
	x := uint64(key)<<32 ^ ver*0x9e3779b97f4a7c15
	for i := 16; i+8 <= len(buf); i += 8 {
		x ^= x >> 29
		x *= 0xbf58476d1ce4e5b9
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
}

// runRackStore is one repetition. Output checks, against a shadow the
// single driver keeps exactly: every GET returns the bytes stamped with
// the key's current version, or a miss after DEL; DEL reports whether the
// key existed; every INCRBY returns the exact running sum.
func runRackStore(cfg rackStoreConfig, seed uint64, tr *tracer) *rep {
	m := startRep(tr)
	kinds := [...]*spanKind{tr.kind("redis", "get"), tr.kind("redis", "set"), tr.kind("redis", "incr"), tr.kind("redis", "del")}

	// Inputs from the seed. Zipf rank 0 is the hottest key; an odd
	// multiplier scatters ranks over key numbers so hotness says nothing
	// about preload order or index position.
	type kvOp struct {
		kind, key int
		delta     int64
	}
	counters := cfg.keys / 32
	zipf := loadgen.NewZipf(loadgen.NewRand(seed), cfg.keys, 0.99)
	r := loadgen.NewRand(seed + 1)
	ops := make([]kvOp, cfg.warm+cfg.ops)
	for i := range ops {
		key := int(uint64(zipf.Next()) * 0x9e3779b97f4a7c15 & uint64(cfg.keys-1))
		switch u := r.Float64(); {
		case u < cfg.get:
			ops[i] = kvOp{kind: opGet, key: key}
		case u < cfg.set:
			ops[i] = kvOp{kind: opSet, key: key}
		case u < cfg.incr:
			ops[i] = kvOp{kind: opIncr, key: key % counters, delta: int64(1 + r.Intn(16))}
		default:
			ops[i] = kvOp{kind: opDel, key: key}
		}
	}
	names, ctrNames := make([]string, cfg.keys), make([]string, counters)
	for i := range names {
		names[i] = "k:" + strconv.Itoa(i)
	}
	for i := range ctrNames {
		ctrNames[i] = "c:" + strconv.Itoa(i)
	}

	// Room for every key's entry several times over: replaced entries wait
	// out a grace period before their blocks are reused.
	arenaBytes := uint64(4<<20 + cfg.keys<<10)
	f := fabric.New(fabric.Config{GlobalSize: arenaBytes + 16<<20, Nodes: cfg.nodes, CacheCapacityLines: cfg.cacheLines, Latency: fabric.DefaultLatency()})
	store := redis.NewRackStore(f, redis.RackStoreConfig{Slots: uint64(2 * cfg.keys), ArenaBytes: arenaBytes})
	views := make([]*redis.View, cfg.nodes)
	lanes := make([][]int, cfg.nodes)
	for i := range views {
		views[i], lanes[i] = store.Attach(f.Node(i)), []int{i}
	}
	version := make([]uint64, cfg.keys) // of the value last SET; survives DEL so no version is ever reused
	live := make([]bool, cfg.keys)
	sums := make([]int64, counters)
	val := make([]byte, cfg.valueBytes)
	want := make([]byte, cfg.valueBytes)

	issue := func(v *redis.View, op kvOp) (ok bool) {
		tr.begin(kinds[op.kind])
		defer tr.end(kinds[op.kind])
		switch op.kind {
		case opGet:
			got, found := v.Get(names[op.key])
			if !live[op.key] {
				return !found
			}
			stamp(want, op.key, version[op.key])
			return found && string(got) == string(want)
		case opSet:
			version[op.key]++
			live[op.key] = true
			stamp(val, op.key, version[op.key])
			return v.Set(names[op.key], val, 0) == nil
		case opIncr:
			sums[op.key] += op.delta
			got, err := v.IncrBy(ctrNames[op.key], op.delta)
			return err == nil && got == sums[op.key]
		default:
			existed := live[op.key]
			live[op.key] = false
			return (v.Del(names[op.key]) == 1) == existed
		}
	}

	for k := 0; k < cfg.keys; k++ {
		if !issue(views[k%cfg.nodes], kvOp{kind: opSet, key: k}) {
			panic("bench: rackstore preload failed")
		}
	}
	for i, op := range ops[:cfg.warm] {
		if !issue(views[i%cfg.nodes], op) {
			panic(fmt.Sprintf("bench: rackstore warm-up op %d failed", i))
		}
	}
	if plantFault {
		for k := range version {
			version[k]++
		}
	}
	m.layer["warmup_ops"] = float64(cfg.keys + cfg.warm)
	var allocs0, frees0 uint64
	for _, v := range views {
		a, fr := v.AllocStats()
		allocs0, frees0 = allocs0+a, frees0+fr
	}

	m.measure(f, lanes, cfg.ops, cfg.ops)
	for i, op := range ops[cfg.warm:] {
		class := classWrite
		if op.kind == opGet {
			class = classRead
		}
		lane := i % cfg.nodes
		m.begin()
		ok := issue(views[lane], op)
		m.end(class, lane, ok)
	}
	m.finish()

	var allocs, frees uint64
	for _, v := range views {
		a, fr := v.AllocStats()
		allocs, frees = allocs+a, frees+fr
	}
	m.layer["redis.reclaim_ratio"] = ratio(float64(frees-frees0), float64(allocs-allocs0))
	return m.rep
}
