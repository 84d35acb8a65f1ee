package main

import (
	"fmt"
	"io"
	"maps"
	"math"
	"path/filepath"
	"slices"
)

// layerUnits names every per-layer metric and its unit. A traced run
// reports all of them on every workload: a layer the workload bypasses
// reports zeros, which is the prediction README.md's table makes.
// *_virt_ns are medians of simulated self time per call, *_host_ns medians
// of host self time (advisory), *_per_op and *_per_msg counter deltas
// divided by ops or messages.
var layerUnits = map[string]string{
	"fabric.virt_ns_per_op": "sim_ns", "fabric.loads_per_op": "count", "fabric.stores_per_op": "count",
	"fabric.misses_per_op": "count", "fabric.writebacks_per_op": "count", "fabric.invalidates_per_op": "count",
	"fabric.atomics_per_op": "count", "fabric.fences_per_op": "count", "fabric.bulk_bytes_per_op": "B",
	"fabric.hit_ratio": "ratio", "fabric.host_per_virt_ns": "ratio",

	"ipc.send_virt_ns": "sim_ns", "ipc.recv_virt_ns": "sim_ns", "ipc.virt_share": "ratio",
	"ipc.atomics_per_msg": "count", "ipc.writebacks_per_msg": "count", "ipc.invalidates_per_msg": "count",
	"ipc.send_host_ns": "ns", "ipc.recv_host_ns": "ns",

	"netstack.send_virt_ns": "sim_ns", "netstack.recv_virt_ns": "sim_ns", "netstack.virt_ns_per_op": "sim_ns",

	"redis.exec_virt_ns": "sim_ns", "redis.exec_host_ns": "ns", "redis.codec_host_ns": "ns",
	"redis.codec_mallocs_per_op": "count", "redis.get_virt_ns": "sim_ns", "redis.set_virt_ns": "sim_ns",
	"redis.incr_virt_ns": "sim_ns", "redis.del_virt_ns": "sim_ns", "redis.get_atomics": "count",
	"redis.set_atomics": "count", "redis.set_writebacks": "count", "redis.reclaim_ratio": "ratio",

	"flacdk.ds.hashmap_get_virt_ns": "sim_ns", "flacdk.ds.hashmap_put_virt_ns": "sim_ns",
	"flacdk.ds.hashmap_exchange_virt_ns": "sim_ns", "flacdk.ds.ring_push_virt_ns": "sim_ns",
	"flacdk.ds.ring_pop_virt_ns": "sim_ns", "flacdk.ds.ring_pop_host_ns": "ns", "flacdk.ds.hashmap_get_host_ns": "ns",
	"flacdk.alloc.alloc_virt_ns": "sim_ns", "flacdk.alloc.free_virt_ns": "sim_ns",
	"flacdk.quiescence.enter_exit_virt_ns": "sim_ns", "flacdk.quiescence.collect_virt_ns": "sim_ns",

	"fs.read_virt_ns_per_page": "sim_ns", "fs.write_virt_ns_per_page": "sim_ns", "fs.writeback_virt_ns_per_page": "sim_ns",
	"fs.cache_hit_ratio": "ratio", "fs.dev_reads": "count", "fs.read_host_ns_per_page": "ns", "fs.write_host_ns_per_page": "ns",

	"serverless.start_cold_virt_s": "sim_s", "serverless.start_shared_virt_s": "sim_s", "serverless.start_hot_virt_s": "sim_s",
	"serverless.fetch_share_cold": "ratio", "serverless.fetch_share_shared": "ratio", "serverless.registry_layer_pulls": "count",

	"memsys.read_virt_ns": "sim_ns", "memsys.write_virt_ns": "sim_ns", "memsys.read_host_ns": "ns",
	"memsys.tlb_hit_ratio": "ratio", "memsys.faults_per_kop": "count", "memsys.migrations_per_kop": "count",
	"memsys.shootdowns_per_kop": "count",

	"tiering.step_virt_ns": "sim_ns", "tiering.step_host_ns": "ns", "tiering.moves_per_step": "count",
	"tiering.move_success_ratio": "ratio",

	"paper.speedup": "x", "paper.speedup_ref": "x", "paper.speedup_err": "ratio",

	"bench.virt_spread": "ratio", "bench.trace_virt_delta": "ratio", "bench.layer_sum_err": "ratio",
	"bench.trace_host_overhead": "ratio",
}

// perPage divides the self cost k's calls add up to by the pages they moved.
func perPage(k *spanKind, pages float64) (virt, host float64) {
	return ratio(float64(k.self.VirtualNS), pages), ratio(float64(k.hostNS), pages)
}

// layerMetrics turns one traced repetition (main, with its tracer), the
// untraced repetition it is checked against (ref), the baseline arm and
// the unit-cost pass into the per-layer metrics. Asking the tracer for a
// kind the workload never opened registers it with no calls, so the ledger
// lists every bypassed layer with the zero the prediction says it has.
func layerMetrics(w *workload, seed uint64, ref, main, base *rep, tr, baseTr *tracer, unit map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for name := range layerUnits {
		out[name] = 0
	}
	for name, v := range unit {
		out[name] = v
	}
	for name, v := range main.layer {
		if _, ok := layerUnits[name]; ok {
			out[name] = v
		}
	}
	ops, fab := float64(main.ops), main.fab

	out["fabric.virt_ns_per_op"] = float64(fab.VirtualNS) / ops
	out["fabric.loads_per_op"] = float64(fab.Loads) / ops
	out["fabric.stores_per_op"] = float64(fab.Stores) / ops
	out["fabric.misses_per_op"] = float64(fab.Misses) / ops
	out["fabric.writebacks_per_op"] = float64(fab.WriteBacks) / ops
	out["fabric.invalidates_per_op"] = float64(fab.Invalidates) / ops
	out["fabric.atomics_per_op"] = float64(fab.Atomics) / ops
	out["fabric.fences_per_op"] = float64(fab.Fences) / ops
	out["fabric.bulk_bytes_per_op"] = float64(fab.BulkBytesRead+fab.BulkBytesWritten) / ops
	out["fabric.hit_ratio"] = ratio(float64(fab.Hits), float64(fab.Hits+fab.Misses))
	out["fabric.host_per_virt_ns"] = ratio(float64(ref.host.Nanoseconds()), float64(ref.fab.VirtualNS))

	send, recv := tr.kind("ipc", "send"), tr.kind("ipc", "recv")
	out["ipc.send_virt_ns"], out["ipc.send_host_ns"] = send.virtMedian(), send.hostMedian()
	out["ipc.recv_virt_ns"], out["ipc.recv_host_ns"] = recv.virtMedian(), recv.hostMedian()
	out["ipc.virt_share"] = ratio(float64(send.self.VirtualNS+recv.self.VirtualNS), float64(main.ledgerNS))
	out["ipc.atomics_per_msg"] = send.perCall(send.self.Atomics + recv.self.Atomics)
	out["ipc.writebacks_per_msg"] = send.perCall(send.self.WriteBacks + recv.self.WriteBacks)
	out["ipc.invalidates_per_msg"] = send.perCall(send.self.Invalidates + recv.self.Invalidates)

	if baseTr != nil {
		nsend, nrecv := baseTr.kind("netstack", "send"), baseTr.kind("netstack", "recv")
		out["netstack.send_virt_ns"], out["netstack.recv_virt_ns"] = nsend.virtMedian(), nrecv.virtMedian()
		out["netstack.virt_ns_per_op"] = ratio(float64(nsend.self.VirtualNS+nrecv.self.VirtualNS), float64(base.ops))
	}

	exec := tr.kind("redis", "exec")
	out["redis.exec_virt_ns"], out["redis.exec_host_ns"] = exec.virtMedian(), exec.hostMedian()
	get, set := tr.kind("redis", "get"), tr.kind("redis", "set")
	out["redis.get_virt_ns"], out["redis.set_virt_ns"] = get.virtMedian(), set.virtMedian()
	out["redis.incr_virt_ns"], out["redis.del_virt_ns"] = tr.kind("redis", "incr").virtMedian(), tr.kind("redis", "del").virtMedian()
	out["redis.get_atomics"], out["redis.set_atomics"] = get.perCall(get.self.Atomics), set.perCall(set.self.Atomics)
	out["redis.set_writebacks"] = set.perCall(set.self.WriteBacks)

	out["fs.read_virt_ns_per_page"], out["fs.read_host_ns_per_page"] = perPage(tr.kind("fs", "read"), main.layer["fs.read_pages"])
	out["fs.write_virt_ns_per_page"], out["fs.write_host_ns_per_page"] = perPage(tr.kind("fs", "write"), main.layer["fs.write_pages"])
	out["fs.writeback_virt_ns_per_page"], _ = perPage(tr.kind("fs", "writeback"), main.layer["fs.writeback_pages"])

	out["serverless.start_cold_virt_s"] = tr.kind("serverless", "start_cold").virtMedian() / 1e9
	out["serverless.start_shared_virt_s"] = tr.kind("serverless", "start_shared").virtMedian() / 1e9
	out["serverless.start_hot_virt_s"] = tr.kind("serverless", "start_hot").virtMedian() / 1e9

	mread := tr.kind("memsys", "read")
	out["memsys.read_virt_ns"], out["memsys.read_host_ns"] = mread.virtMedian(), mread.hostMedian()
	out["memsys.write_virt_ns"] = tr.kind("memsys", "write").virtMedian()
	step := tr.kind("tiering", "step")
	out["tiering.step_virt_ns"], out["tiering.step_host_ns"] = step.virtMedian(), step.hostMedian()

	// Accuracy against the paper, beside the simulated numbers it judges.
	// Inside the paper's range the error is 0; outside, it is the distance
	// to the nearer end. With no range the model is unvalidated: no error.
	speedup := w.speedup(main, base)
	out["paper.speedup"] = speedup
	if w.refHi > 0 {
		ref := math.Min(math.Max(speedup, w.refLo), w.refHi)
		out["paper.speedup_ref"], out["paper.speedup_err"] = ref, (speedup-ref)/ref
	}

	// Self-checks. Tracing charges no simulated time, so the traced
	// repetition must reproduce the untraced one exactly, and the spans of
	// the measured phase must add up to what the rack was charged in it.
	refE2E, mainE2E := ref.endToEnd(w, seed), main.endToEnd(w, seed)
	for name, v := range refE2E {
		if endToEndUnits[name] == "sim_ns" || endToEndUnits[name] == "ops/sim_s" {
			out["bench.trace_virt_delta"] = math.Max(out["bench.trace_virt_delta"], math.Abs(mainE2E[name]-v)/v)
		}
	}
	out["bench.virt_spread"] = spread([]float64{refE2E["virt_ops_per_s"], mainE2E["virt_ops_per_s"]})
	out["bench.layer_sum_err"] = math.Abs(float64(main.ledgerNS)-float64(fab.VirtualNS)) / float64(fab.VirtualNS)
	out["bench.trace_host_overhead"] = ratio(float64(main.host), float64(ref.host)) - 1
	return out
}

// runTraced is the -layers run of one workload: an untraced repetition as
// the reference, the traced one, the baseline arm and the unit-cost pass.
func runTraced(out io.Writer, w *workload, seed uint64, tiny bool, traceDir string, res *result) {
	release()
	ref := w.run(seed, tiny, nil)
	release()
	tr := newTracer()
	main := w.run(seed, tiny, tr)
	var base *rep
	var baseTr *tracer
	if w.baseline != nil {
		release()
		baseTr = newTracer()
		base = w.baseline(seed, tiny, baseTr)
	}
	values := layerMetrics(w, seed, ref, main, base, tr, baseTr, unitCosts(w.unit, seed))
	for name, v := range values {
		res.Metrics[name] = metric{v, layerUnits[name]}
	}
	res.Reps = 1
	for _, r := range []*rep{ref, main, base} {
		if r != nil {
			res.Attempted += r.ops + r.audited
			res.Failed += r.failed
		}
	}

	// The ledger: every layer's calls and its share of the simulated time.
	layers := map[string]bool{}
	for _, k := range tr.kinds {
		layers[k.layer] = true
	}
	ledger := map[string]any{}
	fmt.Fprintf(out, "  ledger of the traced repetition (%d measured ops costing %d simulated ns; spans outside the measured phase included):\n", main.ops, main.fab.VirtualNS)
	for _, l := range slices.Sorted(maps.Keys(layers)) {
		calls, self, host := tr.sum(l)
		ledger[l] = map[string]any{"calls": calls, "self_virt_ns": self.VirtualNS, "self_host_ns": host}
		fmt.Fprintf(out, "    %-12s %9d calls  self %15d sim_ns  host %13d ns (advisory)\n", l, calls, self.VirtualNS, host)
	}
	res.Notes["ledger"] = ledger
	if w.refHi == 0 {
		res.Notes["paper"] = "unvalidated: the paper reports no figure for this ratio"
		fmt.Fprintln(out, "  paper.speedup is unvalidated: the paper reports no figure for this ratio")
	}
	path := filepath.Join(traceDir, "trace-"+w.name+".json")
	if err := tr.writeChrome(path); err != nil {
		fatal("write %s: %v", path, err)
	}
	res.Notes["trace_file"] = path
	fmt.Fprintf(out, "  first %d spans written to %s (Chrome trace_event JSON)\n", len(tr.spans), path)
	printMetrics(out, res.Metrics)
}
