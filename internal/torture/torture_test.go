package torture

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// smokeConfig keeps the tier-1 sweep fast while still driving every fault
// window class.
func smokeConfig(seed int64) Config {
	return Config{
		Seed:         seed,
		OpsPerClient: 120,
		Events:       4,
	}
}

// TestTortureSmoke is the tier-1 sweep: every workload/checker pair, a
// couple of seeds, all tolerated fault classes enabled. Any violation is a
// real invariant break (or a checker bug) and fails the build.
func TestTortureSmoke(t *testing.T) {
	for _, w := range Workloads() {
		for _, seed := range []int64{1, 7} {
			name, seed := w.Name(), seed
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				t.Parallel()
				// A workload holds one sweep's state: each run needs its own.
				rep := Run(ByName(name), smokeConfig(seed))
				if !rep.Passed() {
					t.Fatalf("invariants violated:\n%s", rep)
				}
				if len(rep.Events) == 0 {
					t.Fatalf("schedule was empty: the sweep tested nothing (faults=%s)", rep.Faults)
				}
			})
		}
	}
}

// TestTortureDeterminism: same seed, same schedule — identical event
// traces and verdicts across runs (the replay contract behind
// `flacbench -experiment torture -seed N`).
func TestTortureDeterminism(t *testing.T) {
	for _, name := range []string{"ds", "sched"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := smokeConfig(42)
			r1 := Run(ByName(name), cfg)
			r2 := Run(ByName(name), cfg)
			if len(r1.Events) != len(r2.Events) {
				t.Fatalf("event counts differ: %d vs %d", len(r1.Events), len(r2.Events))
			}
			for i := range r1.Events {
				a, b := r1.Events[i], r2.Events[i]
				// FiredVNS is the observed rack-virtual fire time: timing
				// metadata that varies with interleaving, not part of the
				// seed-derived schedule the replay contract covers.
				a.FiredVNS, b.FiredVNS = 0, 0
				if a != b {
					t.Fatalf("event %d differs: %v vs %v", i, a, b)
				}
			}
			if r1.Verdict() != r2.Verdict() {
				t.Fatalf("verdicts differ: %s vs %s", r1.Verdict(), r2.Verdict())
			}
		})
	}
}

// requireCaught runs the workload with a deliberately broken sync path and
// demands that some seed produces violations — proving the checkers catch
// the bug class they exist for. A sweep the watchdog stopped catches
// nothing and fails the test, as the hang it replaces did.
func requireCaught(t *testing.T, workload, breakName string) {
	t.Helper()
	for _, seed := range []int64{1, 2, 3} {
		cfg := smokeConfig(seed)
		cfg.OpsPerClient = 250 // more laps/merges: give the break time to bite
		cfg.Break = breakName
		rep := Run(ByName(workload), cfg)
		if rep.Caught() {
			t.Logf("seed %d caught it:\n%s", seed, rep)
			return
		}
		if rep.Stuck != "" {
			t.Fatalf("seed %d got stuck with nothing caught:\n%s", seed, rep)
		}
	}
	t.Fatalf("break %q was never caught by the %s checkers", breakName, workload)
}

// TestTortureCatchesRingInvalidateBreak: a consumer that skips its
// pop-side invalidate reads stale cached slots on the second lap; the
// FIFO/payload checker must flag it.
func TestTortureCatchesRingInvalidateBreak(t *testing.T) {
	requireCaught(t, "ds", "ring-invalidate")
}

// TestTortureCatchesShootdownBreak: a remap whose TLB shootdown is
// dropped leaves readers translating through stale entries to old frames;
// the version-floor checker must flag it.
func TestTortureCatchesShootdownBreak(t *testing.T) {
	requireCaught(t, "memsys", "shootdown")
}

// TestTortureCatchesDrainFenceBreak: a self-healing controller that
// forgets the EARLY fence leaves a drained-but-alive node able to write
// through its pre-drain views; the fenced-zombie-write probe must flag
// it the moment a drain completes.
func TestTortureCatchesDrainFenceBreak(t *testing.T) {
	requireCaught(t, "health", "drain-fence")
}

// TestFailureAttachesTrace: a failing sweep must come back with the
// flight recorder's merged post-mortem attached — a non-empty timeline
// and parseable Chrome JSON — while a passing sweep stays lean.
func TestFailureAttachesTrace(t *testing.T) {
	var failed *Report
	for _, seed := range []int64{1, 2, 3} {
		cfg := smokeConfig(seed)
		cfg.OpsPerClient = 250
		cfg.Break = "ring-invalidate"
		rep := Run(ByName("ds"), cfg)
		if !rep.Passed() {
			failed = rep
			break
		}
	}
	if failed == nil {
		t.Fatal("no seed produced a failing run to attach a trace to")
	}
	if failed.TraceTimeline == "" {
		t.Error("failing report has no TraceTimeline")
	}
	if !json.Valid(failed.TraceJSON) {
		t.Errorf("failing report's TraceJSON does not parse: %.80s", failed.TraceJSON)
	}
	if !strings.Contains(failed.TraceTimeline, "rack trace:") {
		t.Errorf("timeline missing header:\n%.200s", failed.TraceTimeline)
	}

	pass := Run(ByName("ds"), smokeConfig(1))
	if !pass.Passed() {
		t.Fatalf("expected clean ds run to pass:\n%s", pass)
	}
	if pass.TraceTimeline != "" || pass.TraceJSON != nil {
		t.Error("passing report should not carry a trace extract")
	}
}
