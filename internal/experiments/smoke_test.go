package experiments

import (
	"math"
	"strings"
	"testing"

	"flacos/internal/loadgen"
)

// wantNames is the experiment list flacbench has always printed, in
// order: CI matrices, docs and muscle memory depend on it.
var wantNames = []string{"fig4", "container", "sync", "pagecache", "faultbox", "ipc", "dedup",
	"density", "sched", "redisrack", "redisscale", "tiering", "trace", "membership", "health", "fabric", "torture"}

// TestTableNames: the table IS `flacbench -list` — names unique,
// non-empty, documented, and exactly the historical list in order.
func TestTableNames(t *testing.T) {
	seen := map[string]bool{}
	for i, e := range Table {
		if e.Name == "" || e.Doc == "" || e.Run == nil {
			t.Errorf("row %d (%q) is missing its name, doc or run function", i, e.Name)
		}
		if seen[e.Name] {
			t.Errorf("experiment name %q appears twice", e.Name)
		}
		seen[e.Name] = true
	}
	if len(Table) != len(wantNames) {
		t.Fatalf("table has %d rows, want %d", len(Table), len(wantNames))
	}
	for i, want := range wantNames {
		if Table[i].Name != want {
			t.Errorf("row %d is %q, want %q", i, Table[i].Name, want)
		}
	}
}

// TestEveryExperimentQuick runs every row of the table exactly as
// `flacbench -quick` and CI do and checks the result is well-formed — a
// name, at least one table row, finite ratios — and that no acceptance
// gate failed. The per-experiment shape tests assert domain claims; this
// is the registry-level guarantee that nothing ships an experiment that
// panics, returns an empty table, emits NaN ratios or misses its gates at
// CI sizes. Rows run one at a time: some gates compare wall clocks. A
// missed gate fails the test at once — there is no second try, because a
// retry would also forgive an integrity gate (zombie write, exactly-once,
// torn read) that trips one run in three.
func TestEveryExperimentQuick(t *testing.T) {
	for _, e := range Table {
		t.Run(e.Name, func(t *testing.T) {
			res := e.Run(true)
			if res == nil {
				t.Fatal("nil result")
			}
			if res.Name == "" {
				t.Error("empty result name")
			}
			if res.Table == nil || res.Table.NumRows() == 0 {
				t.Error("empty result table")
			}
			for k, v := range res.Ratios {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("ratio %q is %v", k, v)
				}
			}
			if res.Failed() {
				t.Errorf("failed gates at -quick sizes:\n%s", res)
			}
		})
	}
}

// TestResultStringIsReproducible: ratios print in key order, so two
// results built in different insertion orders render identically, and
// failed gates are part of the rendering.
func TestResultStringIsReproducible(t *testing.T) {
	keys := []string{"tcp/ipc 64B", "a/b", "zeta", "lock/replication 8n 90%r", "m", "b/a"}
	build := func(order []int) *Result {
		res := newResult("x", "col")
		res.Table.AddRow("v")
		for _, i := range order {
			res.Ratios[keys[i]] = float64(i) + 0.5
		}
		return res
	}
	a, b := build([]int{0, 1, 2, 3, 4, 5}), build([]int{5, 3, 4, 0, 2, 1})
	for i := 0; i < 20; i++ { // map iteration order is randomized per range
		if a.String() != b.String() {
			t.Fatalf("renderings differ with insertion order:\n%s\nvs\n%s", a, b)
		}
	}
	if !strings.Contains(a.String(), "a/b") || strings.Index(a.String(), "a/b") > strings.Index(a.String(), "zeta") {
		t.Errorf("ratios are not in key order:\n%s", a)
	}
	a.Fail("speedup %.1fx under gate", 1.2)
	if !a.Failed() || !strings.Contains(a.String(), "GATE FAILED: speedup 1.2x under gate") {
		t.Errorf("failed gate missing from rendering:\n%s", a)
	}
}

// tinyTiering shrinks QuickTiering again for the tests that run the
// experiment several times over (the registry test covers -quick itself).
// The gate is looser than -quick's because at a few thousand pages the
// daemon's fixed per-move costs amortize over very few accesses.
func tinyTiering() TieringConfig {
	return TieringConfig{SpanPages: 1 << 12, Ops: 24_000, Rounds: 8, LocalPagesPerNode: 256, Gate: 1.05}
}

// TestTieringBenchHeadline pins the tiering experiment's machine-readable
// contract behind flacbench -bench-json: a Bench named "tiering" whose
// throughput is the daemon phase's virtual capacity, with the open-loop
// sweep attached as rows.
func TestTieringBenchHeadline(t *testing.T) {
	t.Parallel()
	res := Tiering(tinyTiering())
	if res.Failed() {
		t.Fatalf("tiering failed at test sizes:\n%s", res)
	}
	b := res.Bench
	if b == nil {
		t.Fatal("tiering result has no Bench headline")
	}
	if b.Name != "tiering" {
		t.Errorf("bench name %q", b.Name)
	}
	if err := b.Validate(); err != nil {
		t.Errorf("headline fails Validate: %v", err)
	}
	if len(b.Rows) != len(openLoopFactors) {
		t.Errorf("got %d sweep rows, want %d", len(b.Rows), len(openLoopFactors))
	}
}

// TestTieringDeterministic locks the experiment's reproducibility claim:
// the whole pipeline — workload generation, both phases, daemon decisions,
// open-loop replay — is a pure function of the seed, so two runs at the
// same configuration must render bit-identical tables and ratios.
func TestTieringDeterministic(t *testing.T) {
	t.Parallel()
	a, b := Tiering(tinyTiering()), Tiering(tinyTiering())
	if a.String() != b.String() { // the rendering includes the failed gates
		t.Errorf("renderings differ across identical runs:\n--- first\n%s\n--- second\n%s", a, b)
	}
	for k, v := range a.Ratios {
		if b.Ratios[k] != v {
			t.Errorf("ratio %q differs: %v vs %v", k, v, b.Ratios[k])
		}
	}
}

// TestHealthBenchHeadline pins the health experiment's machine-readable
// contract: a Bench named "health" whose percentiles are the VIRTUAL
// per-op fabric cost on a healthy link (p50) versus the worst ramp level
// (p99) — accounting-derived, so it must also be bit-identical across
// runs and across -quick vs full sizes for the tracked-artifact drift
// check to hold.
func TestHealthBenchHeadline(t *testing.T) {
	// Not parallel: the run's detectors are ticker-driven, and sharing the
	// host with the tiering tests starves them into missed gates.
	res := Health(QuickHealth())
	if res.Failed() {
		t.Fatalf("health failed at quick sizes:\n%s", res)
	}
	b := res.Bench
	if b == nil {
		t.Fatal("health result has no Bench headline")
	}
	if b.Name != "health" {
		t.Errorf("bench name %q", b.Name)
	}
	if err := b.Validate(); err != nil {
		t.Errorf("headline fails Validate: %v", err)
	}
	sameBench := func(a, b *Bench) bool {
		return a.Name == b.Name && a.OpsPerSec == b.OpsPerSec &&
			a.P50NS == b.P50NS && a.P99NS == b.P99NS
	}
	// The headline is computed from the ramp alone, never from the run's
	// size, so -quick and full runs publish the same artifact (only the
	// artifact of the full run is under test here, not its gates).
	if full := Health(DefaultHealth()).Bench; full == nil || !sameBench(full, b) {
		t.Errorf("bench headline differs across quick/full sizes: %+v vs %+v", b, full)
	}
	if again := healthBench(); !sameBench(again, b) {
		t.Errorf("bench headline differs across runs: %+v vs %+v", again, b)
	}
}

// TestMembershipBenchHeadline pins the membership experiment's
// machine-readable contract: a Bench named "membership" whose
// percentiles are the wall-clock crash->Dead detection latency.
func TestMembershipBenchHeadline(t *testing.T) {
	res := Membership(QuickMembership())
	if res.Failed() {
		t.Fatalf("membership failed at quick sizes:\n%s", res)
	}
	b := res.Bench
	if b == nil {
		t.Fatal("membership result has no Bench headline")
	}
	if b.Name != "membership" {
		t.Errorf("bench name %q", b.Name)
	}
	if b.OpsPerSec <= 0 {
		t.Errorf("ops/s %v", b.OpsPerSec)
	}
	if b.P50NS <= 0 || b.P99NS < b.P50NS {
		t.Errorf("percentiles p50=%v p99=%v", b.P50NS, b.P99NS)
	}
}

// TestRedisRackBenchHeadline pins the machine-readable contract behind
// flacbench -bench-json: the redisrack result must publish a Bench with
// positive throughput and ordered percentiles.
func TestRedisRackBenchHeadline(t *testing.T) {
	res := RedisRack(QuickRedisRack())
	if res.Failed() {
		t.Fatalf("redisrack failed at quick sizes:\n%s", res)
	}
	b := res.Bench
	if b == nil {
		t.Fatal("redisrack result has no Bench headline")
	}
	if b.Name != "redisrack" {
		t.Errorf("bench name %q", b.Name)
	}
	if b.OpsPerSec <= 0 {
		t.Errorf("ops/s %v", b.OpsPerSec)
	}
	if b.P50NS <= 0 || b.P99NS < b.P50NS {
		t.Errorf("percentiles p50=%v p99=%v", b.P50NS, b.P99NS)
	}
}

// TestRedisScaleBenchHeadline pins the scaling sweep's machine-readable
// contract: a Bench named "redisscale" carrying the full per-node-count,
// per-offered-load row series, all of it passing Validate.
func TestRedisScaleBenchHeadline(t *testing.T) {
	cfg := QuickRedisScale()
	res := RedisScale(cfg)
	if res.Failed() {
		t.Fatalf("redisscale failed at quick sizes:\n%s", res)
	}
	b := res.Bench
	if b == nil {
		t.Fatal("redisscale result has no Bench headline")
	}
	if b.Name != "redisscale" {
		t.Errorf("bench name %q", b.Name)
	}
	if err := b.Validate(); err != nil {
		t.Errorf("headline fails Validate: %v", err)
	}
	wantRows := len(cfg.NodeCounts) * len(openLoopFactors)
	if len(b.Rows) != wantRows {
		t.Errorf("got %d rows, want %d (node counts x load factors)", len(b.Rows), wantRows)
	}
	for _, r := range b.Rows {
		if r.P99NS < r.P50NS || r.P999NS < r.P99NS {
			t.Errorf("row %+v has disordered percentiles", r)
		}
	}
}

// TestBenchValidateRejectsMalformed locks the artifact guard: a zeroed or
// half-filled Bench must not be writable as a bench JSON.
func TestBenchValidateRejectsMalformed(t *testing.T) {
	good := Bench{Name: "x", OpsPerSec: 10, P50NS: 5, P99NS: 9}
	if err := good.Validate(); err != nil {
		t.Fatalf("well-formed bench rejected: %v", err)
	}
	bad := []Bench{
		{},
		{Name: "x"},
		{Name: "x", OpsPerSec: -1, P50NS: 5, P99NS: 9},
		{Name: "x", OpsPerSec: math.Inf(1), P50NS: 5, P99NS: 9},
		{Name: "x", OpsPerSec: 10, P50NS: 0, P99NS: 9},
		{Name: "x", OpsPerSec: 10, P50NS: 9, P99NS: 5},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("malformed bench %d passed Validate: %+v", i, b)
		}
	}
	row := good
	row.Rows = []loadgen.Row{{Nodes: 0, OfferedLoad: 1, AchievedOpsPerSec: 1, P50NS: 1, P99NS: 2, P999NS: 3}}
	if err := row.Validate(); err == nil {
		t.Error("bench with zero-node row passed Validate")
	}
	row.Rows = []loadgen.Row{{Nodes: 2, OfferedLoad: 1, AchievedOpsPerSec: 1, P50NS: 5, P99NS: 2, P999NS: 3}}
	if err := row.Validate(); err == nil {
		t.Error("bench with disordered row percentiles passed Validate")
	}
	row.Rows = []loadgen.Row{{Nodes: 2, OfferedLoad: 1, AchievedOpsPerSec: 1, P50NS: 1, P99NS: 2, P999NS: 3}}
	if err := row.Validate(); err != nil {
		t.Errorf("well-formed row rejected: %v", err)
	}
}

// TestFabricBenchHeadline locks the shape of BENCH_fabric.json: the
// artifact's per-op rows are virtual-only (bit-stable across hosts, so
// the committed baseline never drifts), every advertised op is present,
// and two runs of the experiment produce byte-identical headlines.
func TestFabricBenchHeadline(t *testing.T) {
	// Failed wall-clock gates are deliberately ignored here: other tests
	// compete for the host clock, and only the deterministic artifact is
	// under test.
	res := Fabric(QuickFabric())
	if res.Bench == nil {
		t.Fatal("fabric experiment published no bench headline")
	}
	b := res.Bench
	if b.Name != "fabric" {
		t.Errorf("bench name %q, want fabric", b.Name)
	}
	if err := b.Validate(); err != nil {
		t.Errorf("fabric bench failed Validate: %v", err)
	}
	want := []string{
		"read-hit", "write-hit", "read-miss",
		"wbr-1", "inv-1", "wbr-4", "inv-4", "wbr-16", "inv-16", "wbr-64", "inv-64",
		"atomic-rmw", "fence",
	}
	if len(b.Ops) != len(want) {
		t.Fatalf("bench has %d op rows, want %d", len(b.Ops), len(want))
	}
	for i, name := range want {
		op := b.Ops[i]
		if op.Op != name {
			t.Errorf("op row %d is %q, want %q", i, op.Op, name)
		}
		if op.WallNS != 0 {
			t.Errorf("op %q carries wall_ns %v; committed rows must be virtual-only", op.Op, op.WallNS)
		}
		if op.VirtualNS <= 0 {
			t.Errorf("op %q virtual_ns %v not positive", op.Op, op.VirtualNS)
		}
	}
	if b.P50NS != b.Ops[0].VirtualNS {
		t.Errorf("p50 %v is not the read-hit virtual cost %v", b.P50NS, b.Ops[0].VirtualNS)
	}

	// Determinism: a second run's headline is identical field for field.
	b2 := Fabric(QuickFabric()).Bench
	if b.OpsPerSec != b2.OpsPerSec || b.P50NS != b2.P50NS || b.P99NS != b2.P99NS {
		t.Errorf("headline drifted across runs: %+v vs %+v", b, b2)
	}
	for i := range b.Ops {
		if b.Ops[i] != b2.Ops[i] {
			t.Errorf("op row %d drifted across runs: %+v vs %+v", i, b.Ops[i], b2.Ops[i])
		}
	}
}

// TestBenchValidateOpRows extends the artifact guard to the per-op rows.
func TestBenchValidateOpRows(t *testing.T) {
	base := Bench{Name: "x", OpsPerSec: 10, P50NS: 5, P99NS: 9}
	ok := base
	ok.Ops = []OpCost{{Op: "read-hit", VirtualNS: 100}, {Op: "fence", VirtualNS: 30, WallNS: 18}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("well-formed op rows rejected: %v", err)
	}
	bad := [][]OpCost{
		{{Op: "", VirtualNS: 100}},
		{{Op: "a", VirtualNS: 0}},
		{{Op: "a", VirtualNS: -1}},
		{{Op: "a", VirtualNS: math.Inf(1)}},
		{{Op: "a", VirtualNS: 100, WallNS: -1}},
		{{Op: "a", VirtualNS: 100, WallNS: math.NaN()}},
		{{Op: "a", VirtualNS: 100}, {Op: "a", VirtualNS: 200}}, // duplicate name
	}
	for i, ops := range bad {
		b := base
		b.Ops = ops
		if err := b.Validate(); err == nil {
			t.Errorf("malformed op rows %d passed Validate: %+v", i, ops)
		}
	}
}
