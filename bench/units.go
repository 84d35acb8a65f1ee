package main

import (
	"runtime"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/alloc"
	"flacos/internal/flacdk/ds"
	"flacos/internal/flacdk/quiescence"
	"flacos/internal/loadgen"
	"flacos/internal/redis"
)

// unitShapes are the shapes a workload gives the flacdk primitives. The
// drivers reach flacdk only through redis, ipc and fs, whose public calls
// hide it, so the traced run prices the primitives in a pass of their
// own: direct calls, with these shapes, on a small fabric. A zero field
// skips its primitive (the workload does not use it).
type unitShapes struct {
	ringMsg      int    // bytes of an SPSC ring message; also the value the RESP codec pass encodes
	hashSlots    uint64 // ds.HashMap capacity ...
	hashFill     int    // ... and how many keys it holds
	allocBytes   uint64 // size of an arena block
	participants int    // slots in the quiescence domain (TryAdvance reads every one)
}

const unitCalls = 2000

// unitCosts returns the flacdk.* metrics (and redis.codec_*) for u.
func unitCosts(u unitShapes, seed uint64) map[string]float64 {
	out := map[string]float64{}
	f := fabric.New(fabric.Config{GlobalSize: 24 << 20, Nodes: 2, Latency: fabric.DefaultLatency()})
	a, b := f.Node(0), f.Node(1)
	r := loadgen.NewRand(seed)
	// cost runs fn unitCalls times and returns the medians of what one call
	// cost the rack in simulated ns and the host in ns. prep, if not nil,
	// runs unmeasured before every call.
	cost := func(prep, fn func(i int)) (virt, host float64) {
		vs, hs := make([]uint64, unitCalls), make([]uint64, unitCalls)
		for i := range vs {
			if prep != nil {
				prep(i)
			}
			v0, t0 := virtNow(f), time.Now()
			fn(i)
			hs[i], vs[i] = uint64(time.Since(t0)), virtNow(f)-v0
		}
		return percentile(sortU64(vs), 50), percentile(sortU64(hs), 50)
	}

	if u.ringMsg > 0 {
		ring := ds.NewSPSCRing(f, 8, 64<<10)
		msg, buf := make([]byte, u.ringMsg), make([]byte, 64<<10)
		out["flacdk.ds.ring_push_virt_ns"], _ = cost(func(int) { ring.TryPop(b, buf) }, func(int) { ring.TryPush(a, msg) })
		ring.TryPop(b, buf)
		out["flacdk.ds.ring_pop_virt_ns"], out["flacdk.ds.ring_pop_host_ns"] = cost(func(int) { ring.TryPush(a, msg) }, func(int) { ring.TryPop(b, buf) })

		// The RESP codec, both directions of a SET and a GET of this size.
		key, val := []byte("key:1234"), make([]byte, u.ringMsg)
		var enc []byte
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < unitCalls; i++ {
			for _, cmd := range [][][]byte{{[]byte("SET"), key, val}, {[]byte("GET"), key}} {
				enc = redis.AppendCommand(enc[:0], cmd...)
				redis.Decode(enc)
			}
			redis.Decode(redis.AppendSimple(enc[:0], "OK"))
			redis.Decode(redis.AppendBulk(enc[:0], val))
		}
		host := time.Since(t0)
		runtime.ReadMemStats(&m1)
		out["redis.codec_host_ns"] = float64(host.Nanoseconds()) / (2 * unitCalls)
		out["redis.codec_mallocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / (2 * unitCalls)
	}

	if u.hashFill > 0 {
		hm := ds.NewHashMap(f, u.hashSlots)
		keys := make([]uint64, u.hashFill)
		for i := range keys {
			keys[i] = r.Uint64() | 1<<62 // never one of the map's two reserved keys
			hm.Put(a, keys[i], uint64(i))
		}
		pick := func(i int) uint64 { return keys[(i*7919)%len(keys)] }
		out["flacdk.ds.hashmap_get_virt_ns"], out["flacdk.ds.hashmap_get_host_ns"] = cost(nil, func(i int) { hm.Get(a, pick(i)) })
		out["flacdk.ds.hashmap_put_virt_ns"], _ = cost(nil, func(i int) { hm.Put(a, pick(i), uint64(i)) })
		out["flacdk.ds.hashmap_exchange_virt_ns"], _ = cost(nil, func(i int) { hm.Exchange(a, pick(i), uint64(i)) })
	}

	if u.allocBytes > 0 {
		na := alloc.NewArena(f, 8<<20).NodeAllocator(a, 0)
		blocks := make([]fabric.GPtr, unitCalls)
		out["flacdk.alloc.alloc_virt_ns"], _ = cost(nil, func(i int) { blocks[i] = na.AllocUninit(u.allocBytes) })
		out["flacdk.alloc.free_virt_ns"], _ = cost(nil, func(i int) { na.Free(blocks[i]) })
	}

	if u.participants > 0 {
		// One participant working alone, as a View between two ticks: 64
		// retirements, then the tick (TryAdvance and Collect).
		p := quiescence.NewDomain(f, u.participants).Participant(a, 0)
		out["flacdk.quiescence.enter_exit_virt_ns"], _ = cost(nil, func(int) { p.Enter(); p.Exit() })
		out["flacdk.quiescence.collect_virt_ns"], _ = cost(
			func(int) {
				for i := 0; i < 64; i++ {
					p.Retire(func() {})
				}
			},
			func(int) { p.TryAdvance(); p.Collect() })
	}
	return out
}
