package experiments

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flacos/internal/fabric"
)

// These tests assert the SHAPES the paper claims — who wins and by
// roughly what factor — using scaled-down workloads so the suite stays
// fast. cmd/flacbench runs the full-size versions.

func TestFig4Shape(t *testing.T) {
	res := Fig4(QuickFig4())
	if !strings.Contains(res.String(), "flacos-ipc") {
		t.Fatal("missing transport rows")
	}
	for key, ratio := range res.Ratios {
		// Paper: 1.75x-2.4x lower latency for FlacOS. Accept a generous
		// band around it; the invariant is FlacOS wins clearly but not
		// absurdly (which would indicate a cost-model bug).
		if ratio < 1.3 || ratio > 8 {
			t.Errorf("%s = %.2fx outside plausible band [1.3, 8]", key, ratio)
		}
	}
	if len(res.Ratios) != 4 {
		t.Fatalf("expected 4 headline ratios, got %d", len(res.Ratios))
	}
}

func TestContainerShape(t *testing.T) {
	res := Container(QuickContainer())
	coldFlac := res.Ratios["cold/flacos startup"]
	flacHot := res.Ratios["flacos/hot startup"]
	// Paper: 21.067s -> 5.526s is 3.8x; hot (3.02s) faster than FlacOS.
	if coldFlac < 2 || coldFlac > 10 {
		t.Errorf("cold/flacos = %.2fx outside [2, 10]", coldFlac)
	}
	if flacHot <= 1 {
		t.Errorf("flacos/hot = %.2fx; hot start must be the fastest", flacHot)
	}
}

func TestSyncAblationShape(t *testing.T) {
	cfg := SyncConfig{Ops: 800, NodeCounts: []int{2, 8}}
	res := SyncAblation(cfg)
	// Each FlacDK method must beat the lock-based baseline at its design
	// point, and the advantage must be clear at rack scale (8 nodes),
	// where lock serialization dominates — §3.2's core claim.
	checks := map[string]float64{
		"lock/replication 8n 90%r": 2.0, // local-replica reads
		"lock/quiescence 8n 90%r":  1.1, // wait-free version reads
		"lock/delegation 8n 0%r":   1.2, // partitioned updates
	}
	for key, min := range checks {
		r, ok := res.Ratios[key]
		if !ok {
			t.Fatalf("missing ratio %q", key)
		}
		if r < min {
			t.Errorf("%s = %.2fx, want >= %.1fx", key, r, min)
		}
	}
}

func TestPageCacheAblationShape(t *testing.T) {
	res := PageCacheAblation(QuickPageCache())
	mem := res.Ratios["private/shared memory use"]
	// Per-node caches store ~Nodes copies of the shared working set.
	if mem < 3.5 || mem > 4.5 {
		t.Errorf("private/shared memory = %.2fx, want ~%d", mem, pageCacheNodes)
	}
	dev := res.Ratios["private/shared device reads"]
	if dev < pageCacheNodes-0.5 {
		t.Errorf("private/shared device reads = %.2fx, want ~%d (shared cache turns other nodes' cold reads into hits)", dev, pageCacheNodes)
	}
}

func TestIPCAblationShape(t *testing.T) {
	res := IPCAblation(IPCConfig{Rounds: 200})
	for _, size := range []string{"64B", "4096B"} {
		if r := res.Ratios["tcp/ipc "+size]; r <= 1.2 {
			t.Errorf("tcp/ipc %s = %.2fx: shared-memory IPC must beat TCP", size, r)
		}
		if r := res.Ratios["tcp/migration "+size]; r <= 1.2 {
			t.Errorf("tcp/migration %s = %.2fx", size, r)
		}
	}
}

func TestFaultBoxAblationShape(t *testing.T) {
	cfg := FaultBoxConfig{AppCounts: []int{2, 16}}
	res := FaultBoxAblation(cfg)
	small := res.Ratios["horizontal/vertical 2 apps"]
	large := res.Ratios["horizontal/vertical 16 apps"]
	if large <= small {
		t.Errorf("horizontal penalty must grow with density: 2 apps %.2fx, 16 apps %.2fx", small, large)
	}
	if large < 2 {
		t.Errorf("horizontal/vertical at 16 apps = %.2fx, want >= 2", large)
	}
}

func TestDedupAblationShape(t *testing.T) {
	res := DedupAblation()
	if got := res.Ratios["pages merged"]; got != dedupSets*(dedupCopies-1) {
		t.Errorf("pages merged = %v, want %d", got, dedupSets*(dedupCopies-1))
	}
	if r := res.Ratios["memory before/after dedup"]; r < 1.5 {
		t.Errorf("dedup saving = %.2fx, want >= 1.5", r)
	}
}

func TestDensityAblationShape(t *testing.T) {
	res := DensityAblation(QuickDensity())
	r := res.Ratios["pinned/routed invoke latency"]
	// 8 fillers + the target on the hot node vs 1 instance on the idle one:
	// the interference model predicts roughly 1 + 0.18*8 ≈ 2.4x.
	if r < 1.5 || r > 4 {
		t.Errorf("pinned/routed = %.2fx outside [1.5, 4]", r)
	}
}

func TestTraceShape(t *testing.T) {
	res := Trace(QuickTrace())
	if res.Failed() {
		t.Fatalf("trace experiment failed its acceptance bounds:\n%s", res)
	}
	// Each message carries the table: its dispatch rows give both arms'
	// node-1 atomics per task.
	r := res.Ratios["traced/untraced dispatch cost"]
	if r <= 1.0 {
		t.Errorf("traced/untraced = %.3fx: tracing cannot be free\n%s", r, res)
	}
	if r > 1+traceOverheadBudgetPct/100 {
		t.Errorf("traced/untraced = %.3fx exceeds the %.0f%% budget\n%s", r, traceOverheadBudgetPct, res)
	}
}

// TestSchedCrashWithNode1Held scripts the crash phase's host race: node
// 1's workers are held (gated out of serving) until node 0 has polled
// the phase's wait for node 1's first task 50 times, which is long enough
// for node 0's workers to run every task if they may. The phase must
// still crash node 1 mid-task and finish every task, within seconds.
func TestSchedCrashWithNode1Held(t *testing.T) {
	cfg := QuickSched()
	res := newResult("crash phase", "phase", "policy", "tasks", "throughput", "p50 dispatch", "p99 dispatch")
	done := make(chan struct{})
	go func() {
		defer close(done)
		f, s := schedCrashRack()
		s.SetNodeServing(1, false)
		var polls atomic.Int64
		f.Node(0).SetOpHook(func(k fabric.OpKind, _, _ uint64) {
			if k == fabric.OpAwait && polls.Add(1) == 50 {
				s.SetNodeServing(1, true)
			}
		})
		schedCrash(res, cfg, f, s)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("schedCrash: node 1 never started a task in 5s; node 0 ran them all while node 1 was held")
	}
	if r := res.Ratios["tasks surviving node crash"]; r != 1 {
		t.Fatalf("tasks surviving node crash = %.2f, want 1:\n%s", r, res)
	}
}

func TestSchedAblationShape(t *testing.T) {
	// The placement phase needs its full task count: the p99 gap is a
	// queueing effect, so an undersized run never saturates the workers
	// and measures only claim noise.
	cfg := DefaultSched()
	cfg.CrashTasks = 24
	res := SchedAblation(cfg)
	if r := res.Ratios["random/locality dispatch p99"]; r <= 1.2 {
		t.Errorf("random/locality dispatch p99 = %.2fx: locality-aware placement must beat random", r)
	}
	if r := res.Ratios["tasks surviving node crash"]; r != 1.0 {
		t.Errorf("tasks surviving node crash = %.2f, want 1.0 (exactly-once completion)", r)
	}
}
