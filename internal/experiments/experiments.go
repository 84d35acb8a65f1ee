// Package experiments reproduces the paper's evaluation (§4.2) and the
// ablations behind its design claims (§3). Each experiment builds its own
// simulated rack, runs the workload, and reports results in VIRTUAL time —
// the fabric's deterministic cost accounting — so runs are reproducible
// and independent of host scheduling.
//
// Every experiment is one row of Table: cmd/flacbench, the root
// benchmarks, the smoke tests and CI all iterate it. Adding an experiment
// is one file (its Default* and Quick* configs side by side, its run
// function recording failed gates with Result.Fail) plus one row here.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"flacos/internal/loadgen"
	"flacos/internal/metrics"
)

// Experiment is one row of the experiment table.
type Experiment struct {
	Name string
	Doc  string // one line, shown by flacbench -h
	// Run executes the experiment at paper scale, or at CI scale (same
	// shapes, smaller workloads) when quick is set.
	Run func(quick bool) *Result
}

// Table lists every experiment in the order flacbench runs and lists them.
var Table = []Experiment{
	{"fig4", "Redis SET/GET latency, FlacOS IPC vs TCP (paper Fig. 4)",
		func(q bool) *Result { return Fig4(sized(q, QuickFig4, DefaultFig4)) }},
	{"container", "container startup: cold vs shared page cache vs hot (paper 4.2)",
		func(q bool) *Result { return Container(sized(q, QuickContainer, DefaultContainer)) }},
	{"sync", "ablation A: synchronization methods on non-coherent memory",
		func(q bool) *Result { return SyncAblation(sized(q, QuickSync, DefaultSync)) }},
	{"pagecache", "ablation B: shared vs per-node page caches",
		func(q bool) *Result { return PageCacheAblation(sized(q, QuickPageCache, DefaultPageCache)) }},
	{"faultbox", "ablation C: vertical fault box vs per-subsystem recovery",
		func(q bool) *Result { return FaultBoxAblation(sized(q, QuickFaultBox, DefaultFaultBox)) }},
	{"ipc", "ablation D: echo round trip over TCP, RDMA, FlacOS IPC, migration RPC",
		func(q bool) *Result { return IPCAblation(sized(q, QuickIPC, DefaultIPC)) }},
	{"dedup", "ablation E: content-based page dedup over global memory",
		func(bool) *Result { return DedupAblation() }},
	{"density", "ablation F: density-aware routing vs pinned placement",
		func(q bool) *Result { return DensityAblation(sized(q, QuickDensity, DefaultDensity)) }},
	{"sched", "ablation G: locality placement and crash re-dispatch",
		func(q bool) *Result { return SchedAblation(sized(q, QuickSched, DefaultSched)) }},
	{"redisrack", "rack-shared Redis: one dataset served from 1 vs N nodes",
		func(q bool) *Result { return RedisRack(sized(q, QuickRedisRack, DefaultRedisRack)) }},
	{"redisscale", "open-loop RackStore scaling to 16 nodes, hot-key combining",
		func(q bool) *Result { return RedisScale(sized(q, QuickRedisScale, DefaultRedisScale)) }},
	{"tiering", "hotness-tiered placement daemon vs static tiers",
		func(q bool) *Result { return Tiering(sized(q, QuickTiering, DefaultTiering)) }},
	{"trace", "flight-recorder overhead budget",
		func(q bool) *Result { return Trace(sized(q, QuickTrace, DefaultTrace)) }},
	{"membership", "failure detection vs per-subsystem lease-expiry recovery",
		func(q bool) *Result { return Membership(sized(q, QuickMembership, DefaultMembership)) }},
	{"health", "gray-failure drain vs liveness-only baseline",
		func(q bool) *Result { return Health(sized(q, QuickHealth, DefaultHealth)) }},
	{"fabric", "fabric per-op costs and ranged fast-path gates",
		func(q bool) *Result { return Fabric(sized(q, QuickFabric, DefaultFabric)) }},
	{"torture", "seeded rack-wide fault-sweep matrix",
		func(q bool) *Result { return Torture(q, TortureFlags{}) }},
}

// sized picks an experiment's CI-sized or paper-sized configuration.
func sized[C any](quick bool, quickCfg, fullCfg func() C) C {
	if quick {
		return quickCfg()
	}
	return fullCfg()
}

// Result is one experiment's rendered output plus raw series for
// programmatic checks (tests assert on the shapes the paper claims).
type Result struct {
	Name  string
	Table *metrics.Table
	// Ratios holds the experiment's headline comparisons, e.g.
	// "tcp/ipc set 64B" -> 2.1.
	Ratios map[string]float64
	// Bench, when set, is the experiment's machine-readable headline for
	// cross-PR tracking (flacbench -bench-json writes it to
	// BENCH_<name>.json).
	Bench *Bench
	// Failures lists the acceptance gates the run missed, one sentence
	// each; flacbench exits nonzero when there are any.
	Failures []string
	// Artifacts are files a failing run wants kept (failing torture
	// seeds, flight-recorder extracts); flacbench writes them to the
	// working directory for CI upload.
	Artifacts []Artifact
}

// Artifact is one named file attached to a Result.
type Artifact struct {
	Name string
	Data []byte
}

func newResult(name string, columns ...string) *Result {
	return &Result{Name: name, Table: metrics.NewTable(columns...), Ratios: map[string]float64{}}
}

// Fail records one missed acceptance gate.
func (r *Result) Fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// Failed reports whether any gate was missed.
func (r *Result) Failed() bool { return len(r.Failures) > 0 }

// Bench is one experiment's headline numbers in machine-readable form.
// Times are virtual nanoseconds; throughput is ops per virtual second.
type Bench struct {
	Name      string  `json:"name"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50NS     float64 `json:"p50_ns"`
	P99NS     float64 `json:"p99_ns"`
	// Rows, when set, holds a sweep's full per-configuration series (the
	// redisscale scaling curve: one row per node count and offered load).
	Rows []loadgen.Row `json:"rows,omitempty"`
	// Ops, when set, holds per-operation cost rows (the fabric
	// micro-benchmark: one row per op kind). VirtualNS comes from the
	// deterministic cost model and is bit-stable across runs and hosts;
	// WallNS is host-dependent and omitted from committed artifacts.
	Ops []OpCost `json:"ops,omitempty"`
}

// OpCost is one operation's cost row inside a Bench.
type OpCost struct {
	Op        string  `json:"op"`
	VirtualNS float64 `json:"virtual_ns"`
	WallNS    float64 `json:"wall_ns,omitempty"`
}

// Validate checks a Bench is a publishable artifact: named, with positive
// finite headline numbers and well-formed rows. flacbench refuses to write
// a bench JSON that fails this — a zeroed artifact sailing through CI
// unnoticed is exactly the failure mode the check exists to close.
func (b *Bench) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("bench has no name")
	}
	if !(b.OpsPerSec > 0) || math.IsInf(b.OpsPerSec, 0) {
		return fmt.Errorf("bench %s: ops_per_sec %v is not positive and finite", b.Name, b.OpsPerSec)
	}
	if !(b.P50NS > 0) || !(b.P99NS >= b.P50NS) || math.IsInf(b.P99NS, 0) {
		return fmt.Errorf("bench %s: malformed percentiles p50=%v p99=%v", b.Name, b.P50NS, b.P99NS)
	}
	for i, r := range b.Rows {
		if r.Nodes <= 0 || !(r.OfferedLoad > 0) || !(r.AchievedOpsPerSec > 0) ||
			r.P50NS == 0 || r.P99NS < r.P50NS || r.P999NS < r.P99NS ||
			math.IsInf(r.OfferedLoad, 0) || math.IsInf(r.AchievedOpsPerSec, 0) {
			return fmt.Errorf("bench %s: malformed row %d: %+v", b.Name, i, r)
		}
	}
	seen := map[string]bool{}
	for i, op := range b.Ops {
		if op.Op == "" {
			return fmt.Errorf("bench %s: op row %d has no name", b.Name, i)
		}
		if seen[op.Op] {
			return fmt.Errorf("bench %s: duplicate op row %q", b.Name, op.Op)
		}
		seen[op.Op] = true
		if !(op.VirtualNS > 0) || math.IsInf(op.VirtualNS, 0) {
			return fmt.Errorf("bench %s: op %q virtual_ns %v is not positive and finite", b.Name, op.Op, op.VirtualNS)
		}
		if op.WallNS < 0 || math.IsInf(op.WallNS, 0) || math.IsNaN(op.WallNS) {
			return fmt.Errorf("bench %s: op %q wall_ns %v is malformed", b.Name, op.Op, op.WallNS)
		}
	}
	return nil
}

// String renders the table, the headline ratios in key order (so two
// runs of one experiment are textually comparable), and any failed gates.
func (r *Result) String() string {
	var b strings.Builder
	b.WriteString("== " + r.Name + " ==\n" + r.Table.String())
	if len(r.Ratios) > 0 {
		keys := make([]string, 0, len(r.Ratios))
		for k := range r.Ratios {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("headline ratios:\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-32s %.2fx\n", k, r.Ratios[k])
		}
	}
	for _, f := range r.Failures {
		b.WriteString("GATE FAILED: " + f + "\n")
	}
	return b.String()
}

func ns(v float64) string { return metrics.FormatNS(v) }

// ratio is a/b, or 0 when b is not positive (a phase that measured nothing
// must miss its gate, not divide by zero).
func ratio(a, b float64) float64 {
	if b > 0 {
		return a / b
	}
	return 0
}
