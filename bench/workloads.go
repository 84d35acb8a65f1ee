package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// workload is one named set of inputs for one of the four drivers.
type workload struct {
	name string
	// loadRate is the open-loop arrival rate behind virt_load_p99_ns, in
	// ops per simulated second: about 70% of the capacity measured at the
	// commit that added the benchmark, frozen since. Re-tuning it would
	// move the metric without the program changing.
	loadRate float64
	// tailPct is the percentile behind virt_*_tail_ns: the highest that
	// leaves at least ten samples beyond it.
	tailPct float64
	// run is one repetition on a fresh rack; tiny selects the test scale.
	run func(seed uint64, tiny bool, tr *tracer) *rep
	// baseline is the comparison arm behind paper.speedup, run once by
	// the traced run (nil: the ratio is between the main arm's classes).
	baseline func(seed uint64, tiny bool, tr *tracer) *rep
	// speedup is the workload's headline ratio; refLo..refHi is the range
	// the paper reports for it (0, 0: the paper has none).
	speedup      func(main, base *rep) float64
	refLo, refHi float64
	unit         unitShapes
}

func meanLatency(r *rep) float64 {
	return ratio(sum(r.lat[classRead])+sum(r.lat[classWrite]), float64(r.ops))
}

func redisIPC(valueBytes int, tcp bool) func(uint64, bool, *tracer) *rep {
	return func(seed uint64, tiny bool, tr *tracer) *rep {
		cfg := redisIPCConfig{valueBytes: valueBytes, keys: 4096, ops: 40000, tcp: tcp}
		if tiny {
			cfg.keys, cfg.ops = 64, 400
		}
		return runRedisIPC(cfg, seed, tr)
	}
}

func rackStore(nodes int, get, set, incr float64) func(uint64, bool, *tracer) *rep {
	return func(seed uint64, tiny bool, tr *tracer) *rep {
		cfg := rackStoreConfig{nodes: nodes, keys: 32768, valueBytes: 128, ops: 400000, warm: 16384, cacheLines: 8192,
			get: get, set: get + set, incr: get + set + incr}
		if tiny {
			// Unbounded caches: over so few ops the map-order evictions of a
			// bounded one would move the tail percentiles between runs.
			cfg.keys, cfg.ops, cfg.warm, cfg.cacheLines = 512, 2000, 256, -1
		}
		return runRackStore(cfg, seed, tr)
	}
}

func containerStart(seed uint64, tiny bool, tr *tracer) *rep {
	cfg := containerConfig{images: 64, warm: 2, layers: 4, imageBytes: 4 << 20}
	if tiny {
		cfg = containerConfig{images: 12, warm: 1, layers: 2, imageBytes: 64 << 10}
	}
	return runContainer(cfg, seed, tr)
}

func memTier(daemon bool) func(uint64, bool, *tracer) *rep {
	return func(seed uint64, tiny bool, tr *tracer) *rep {
		cfg := memTierConfig{nodes: 4, spanPages: 65536, ops: 600000, rounds: 24, localPagesPerNode: 4096, maxMoves: 4096, daemon: daemon}
		if tiny {
			cfg.spanPages, cfg.ops, cfg.rounds, cfg.localPagesPerNode, cfg.maxMoves = 1024, 6000, 6, 64, 256
		}
		return runMemTier(cfg, seed, tr)
	}
}

// The rack store's index (2 slots per key), its entry blocks (header, key,
// 128 B value) and its quiescence domain (RackStoreConfig's default of 128
// view slots, every one read by each epoch advance).
var rackStoreShapes = unitShapes{hashSlots: 65536, hashFill: 32768 + 1024, allocBytes: 16 + 8 + 128, participants: 128}

// The two shapes of headline ratio: baseline over main in mean latency,
// main over baseline in throughput.
func latencyRatio(m, b *rep) float64 { return ratio(meanLatency(b), meanLatency(m)) }
func opsRatio(m, b *rep) float64     { return ratio(m.opsPerSimSecond(), b.opsPerSimSecond()) }

var workloads = []*workload{
	{
		name: "redis-ipc-64", loadRate: 50000, tailPct: 99,
		run: redisIPC(64, false), baseline: redisIPC(64, true),
		speedup: func(m, b *rep) float64 { return ratio(meanLatency(b), meanLatency(m)) },
		refLo:   1.75, refHi: 2.4,
		unit: unitShapes{ringMsg: 64},
	},
	{
		name: "redis-ipc-4k", loadRate: 30000, tailPct: 99,
		run: redisIPC(4096, false), baseline: redisIPC(4096, true),
		speedup: func(m, b *rep) float64 { return ratio(meanLatency(b), meanLatency(m)) },
		refLo:   1.75, refHi: 2.4,
		unit: unitShapes{ringMsg: 4096},
	},
	{
		name: "rackstore-read", loadRate: 350000, tailPct: 99,
		run: rackStore(4, 0.95, 0.05, 0), baseline: rackStore(1, 0.95, 0.05, 0),
		speedup: opsRatio,
		unit:    rackStoreShapes,
	},
	{
		name: "rackstore-write", loadRate: 260000, tailPct: 99,
		run: rackStore(4, 0.50, 0.30, 0.15), baseline: rackStore(1, 0.50, 0.30, 0.15),
		speedup: opsRatio,
		unit:    rackStoreShapes,
	},
	{
		// 64 starts per class leave ten samples beyond p84, not p99.
		name: "container-start", loadRate: 0.06, tailPct: 84,
		run:     containerStart,
		speedup: func(m, _ *rep) float64 { return ratio(mean(m.lat[classWrite]), mean(m.lat[classRead])) },
		refLo:   3.8, refHi: 3.8,
		// fs's page index and its quiescence domain of 2 mounts per node.
		unit: unitShapes{hashSlots: 2 * 66 * 1024, hashFill: 66 * 1024, participants: 4},
	},
	{
		name: "mem-tier", loadRate: 250000, tailPct: 99,
		run: memTier(true), baseline: memTier(false),
		speedup: opsRatio,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// release collects the last repetition's rack before the next one is
// timed, so set-up time and peak RSS do not depend on how many repetitions
// ran. The freed memory is deliberately not handed back to the OS: faulting
// it in again made set-up 20% slower and three times as variable.
func release() { runtime.GC() }

// peakRSSMB reads the process's high-water resident set from the kernel.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}

// endToEnd is one repetition's end-to-end metrics.
func (r *rep) endToEnd(w *workload, seed uint64) map[string]float64 {
	rd, wr := sortU64(r.lat[classRead]), sortU64(r.lat[classWrite])
	return map[string]float64{
		"setup_s":             r.setupSeconds(),
		"virt_read_p50_ns":    percentile(rd, 50),
		"virt_read_tail_ns":   percentile(rd, w.tailPct),
		"virt_write_p50_ns":   percentile(wr, 50),
		"virt_write_tail_ns":  percentile(wr, w.tailPct),
		"virt_ops_per_s":      r.opsPerSimSecond(),
		"virt_load_p99_ns":    r.loadP99(seed, w.loadRate),
		"host_alloc_b_per_op": ratio(float64(r.allocB), float64(r.ops)),
		"host_mallocs_per_op": ratio(float64(r.mallocs), float64(r.ops)),
	}
}

var endToEndUnits = map[string]string{
	"setup_s": "s", "virt_read_p50_ns": "sim_ns", "virt_read_tail_ns": "sim_ns",
	"virt_write_p50_ns": "sim_ns", "virt_write_tail_ns": "sim_ns", "virt_ops_per_s": "ops/sim_s",
	"virt_load_p99_ns": "sim_ns", "host_alloc_b_per_op": "B", "host_mallocs_per_op": "count",
	"host_peak_rss_mb": "MB",
}

// runWorkload runs w in this process and prints what it measured.
func runWorkload(out io.Writer, w *workload, seed uint64, budget time.Duration, traced, tiny bool, traceDir string) *result {
	fmt.Fprintf(out, "== %s  seed %d  %s  nproc %d  GOMAXPROCS %d\n", w.name, seed, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	res := &result{Notes: map[string]any{}, Metrics: map[string]metric{}}
	if traced {
		runTraced(out, w, seed, tiny, traceDir, res)
		return res
	}
	// Each repetition is reduced to its metrics at once, so that only the
	// last one's samples are alive while the next rack is built.
	start := time.Now()
	byName := map[string][]float64{}
	var wall, speed []float64 // set-up as timed, and the host's speed beside it
	var last *rep
	for res.Reps < minReps || time.Since(start) < budget {
		last = nil
		release()
		last = w.run(seed, tiny, nil)
		res.Reps++
		res.Attempted += last.ops + last.audited
		res.Failed += last.failed
		wall = append(wall, last.setup.Seconds())
		speed = append(speed, refNominal.Seconds()/last.ref.Seconds())
		for n, v := range last.endToEnd(w, seed) {
			byName[n] = append(byName[n], v)
		}
		if res.Reps == minReps {
			// Read now, not at exit, so the figure does not depend on how
			// many further repetitions the time budget allowed.
			res.Metrics["host_peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		}
	}
	res.Spread = map[string]float64{}
	for n, vs := range byName {
		res.Spread[n] = spread(vs)
		res.Metrics[n] = metric{median(vs), endToEndUnits[n]}
	}
	res.Notes["tail_percentile"] = w.tailPct
	res.Notes["read_samples"] = len(last.lat[classRead])
	res.Notes["write_samples"] = len(last.lat[classWrite])
	res.Notes["warmup_ops"] = last.layer["warmup_ops"]
	res.Notes["load_rate_per_sim_s"] = w.loadRate
	res.Notes["failed_share"] = ratio(float64(res.Failed), float64(res.Attempted))
	res.Notes["setup_wall_s"] = median(wall)
	res.Notes["host_speed"] = median(speed)
	res.Notes["host_ns_per_op_advisory"] = ratio(float64(last.host.Nanoseconds()), float64(last.ops))
	fmt.Fprintf(out, "  %d repetitions on fresh racks, %d unmeasured warm-up ops each; tail = p%g over %d read and %d write samples\n",
		res.Reps, int(last.layer["warmup_ops"]), w.tailPct, len(last.lat[classRead]), len(last.lat[classWrite]))
	fmt.Fprintf(out, "  open loop at %g ops per simulated s; failed_share %g (%d of %d); host %.0f ns/op (advisory)\n",
		w.loadRate, res.Notes["failed_share"], res.Failed, res.Attempted, res.Notes["host_ns_per_op_advisory"])
	fmt.Fprintf(out, "  set-up took %.4f s of wall time (median) on a host at %.2f of nominal speed; setup_s is at nominal speed\n",
		res.Notes["setup_wall_s"], res.Notes["host_speed"])
	printMetrics(out, res.Metrics)
	return res
}
