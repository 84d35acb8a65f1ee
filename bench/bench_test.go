package main

import (
	"encoding/json"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	replayArrivals = 20000 // the open-loop replay would otherwise dominate tiny runs
	refRounds = 0          // so would the host-speed reference; setup_s is then wall time as timed
	os.Exit(m.Run())
}

// virtOf keeps the simulated metrics of one repetition.
func virtOf(r *rep, w *workload, seed uint64) map[string]float64 {
	out := map[string]float64{}
	for name, v := range r.endToEnd(w, seed) {
		if strings.HasPrefix(name, "virt_") {
			out[name] = v
		}
	}
	return out
}

// TestSameSeedSameSimulatedMetrics: every driver, run twice at tiny scale
// with one seed, yields identical virt_* metrics. (At full scale the
// rack-store workloads repeat only within 0.1%: their bounded cache evicts
// in Go map order, internal/fabric/cache.go, which no seed controls. The
// tiny scale runs them with unbounded caches.)
func TestSameSeedSameSimulatedMetrics(t *testing.T) {
	for _, w := range workloads {
		a, b := virtOf(w.run(7, true, nil), w, 7), virtOf(w.run(7, true, nil), w, 7)
		for name, va := range a {
			if va <= 0 {
				t.Errorf("%s: %s = %v, want a positive number", w.name, name, va)
			}
			if b[name] != va {
				t.Errorf("%s: %s differs between two runs of seed 7: %v then %v", w.name, name, va, b[name])
			}
		}
	}
}

// TestOtherSeedOtherInputs: a different seed generates a different op
// stream, seen as a different sequence of per-op service times.
func TestOtherSeedOtherInputs(t *testing.T) {
	for _, w := range workloads {
		if slices.Equal(w.run(7, true, nil).service, w.run(8, true, nil).service) {
			t.Errorf("%s: seeds 7 and 8 ran the same ops", w.name)
		}
	}
}

// TestPlantedFaultFails: with every check passing failed is 0, and one
// wrong expected value planted in each driver is counted.
func TestPlantedFaultFails(t *testing.T) {
	for _, w := range workloads {
		if r := w.run(7, true, nil); r.failed != 0 {
			t.Errorf("%s: %d of %d checks failed on a correct run", w.name, r.failed, r.ops+r.audited)
		}
		plantFault = true
		r := w.run(7, true, nil)
		plantFault = false
		if r.failed == 0 {
			t.Errorf("%s: a planted wrong expected value went unnoticed by %d checks", w.name, r.ops+r.audited)
		}
	}
}

// TestNoGoroutineOutlivesSetup: one driver goroutine per workload; the
// goroutine set-up borrows for Accept has ended by the time a run returns.
func TestNoGoroutineOutlivesSetup(t *testing.T) {
	for _, w := range workloads {
		before := runtime.NumGoroutine()
		w.run(7, true, nil)
		// The Accept goroutine's last act is handing over the connection; give
		// the scheduler a moment to retire it.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines before the run, %d after", w.name, before, after)
		}
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// tinyTraced runs every workload's traced run once, at tiny scale, for the
// tests that look at it.
var tinyTraced = sync.OnceValue(func() map[string]*result {
	dir, err := os.MkdirTemp("", "bench-traces")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	out := map[string]*result{}
	for _, w := range workloads {
		out[w.name] = runWorkload(io.Discard, w, 7, 0, true, true, dir)
		if _, err := os.Stat(out[w.name].Notes["trace_file"].(string)); err != nil {
			panic(err)
		}
	}
	return out
})

// TestNamesMatchBenchmarkJSON: both kinds of run, at tiny scale, emit
// exactly the metrics BENCHMARK.json lists, under well-formed names and
// with the listed units, for exactly the workloads it lists.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range spec.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[1][m.Name] = m.Unit
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(listed, have) {
		t.Errorf("BENCHMARK.json lists workloads %v, the bench has %v", listed, have)
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloads {
		for traced, names := range want {
			got := tinyTraced()[w.name].Metrics
			if traced == 0 {
				got = runWorkload(io.Discard, w, 7, 0, false, true, "").Metrics
			}
			for _, name := range slices.Sorted(maps.Keys(got)) {
				if !wellFormed.MatchString(name) {
					t.Errorf("%s: malformed metric name %q", w.name, name)
				}
				if unit, ok := names[name]; !ok {
					t.Errorf("%s: emits %s, which BENCHMARK.json does not list", w.name, name)
				} else if unit != got[name].Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.name, name, got[name].Unit, unit)
				}
			}
			for name := range names {
				if _, ok := got[name]; !ok {
					t.Errorf("%s: BENCHMARK.json lists %s, which the run does not emit", w.name, name)
				}
			}
		}
	}
}

// TestTracedRunInvariants: tracing charges no simulated time, the spans
// add up to what the rack was charged, and a layer a workload bypasses
// records no call.
func TestTracedRunInvariants(t *testing.T) {
	bypassed := map[string][]string{
		"redis-ipc-64":    {"fs", "serverless", "memsys", "tiering"},
		"redis-ipc-4k":    {"fs", "serverless", "memsys", "tiering"},
		"rackstore-read":  {"ipc", "fs", "serverless", "memsys", "tiering"},
		"rackstore-write": {"ipc", "fs", "serverless", "memsys", "tiering"},
		"container-start": {"ipc", "redis", "memsys", "tiering"},
		"mem-tier":        {"ipc", "redis", "fs", "serverless"},
	}
	for _, w := range workloads {
		res := tinyTraced()[w.name]
		for _, name := range []string{"bench.trace_virt_delta", "bench.layer_sum_err"} {
			if v := res.Metrics[name].Value; v != 0 {
				t.Errorf("%s: %s = %v, want 0", w.name, name, v)
			}
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d checks failed in the traced run", w.name, res.Failed)
		}
		ledger := res.Notes["ledger"].(map[string]any)
		for _, layer := range bypassed[w.name] {
			if row, ok := ledger[layer].(map[string]any); ok && row["calls"] != 0 {
				t.Errorf("%s: layer %s is predicted flat but recorded calls: %v", w.name, layer, row)
			}
		}
	}
}

func TestPercentileSplitsTies(t *testing.T) {
	// Four samples on one level: rank 2 of 4 sits in the middle of it.
	if got := percentile([]uint64{100, 100, 100, 100}, 50); got != 100 {
		t.Errorf("p50 of a single level = %v, want 100", got)
	}
	// 1 below, 3 on the level: rank 2 is a third of the way into the level.
	if got, want := percentile([]uint64{90, 100, 100, 100}, 50), 100-0.5+1.0/3; math.Abs(got-want) > 1e-9 {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	if got := percentile([]uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99); got < 9.5 || got > 10.5 {
		t.Errorf("p99 of 1..10 = %v, want within the top sample's level", got)
	}
}

// TestCompareVerdicts: -compare applies each metric's bound in the
// direction it improves, calls a noisy pairing unresolved, and exits
// non-zero exactly when something got worse.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		path := filepath.Join(dir, name)
		data, _ := json.Marshal(v)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("BENCHMARK.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "lat", "better": "lower", "bound": 0.02},
		{"name": "rate", "better": "higher", "bound": 0.02},
		{"name": "noisy", "better": "lower", "bound": 0.02},
	}})
	file := func(name string, lat, rate float64, failed int) string {
		return write(name, results{Workloads: map[string]*result{"w": {
			Attempted: 100, Failed: failed,
			Metrics: map[string]metric{"lat": {lat, "ns"}, "rate": {rate, "1/s"}, "noisy": {1, "ns"}},
			Spread:  map[string]float64{"noisy": 0.5},
		}}})
	}
	base := file("a.json", 100, 100, 0)
	var out strings.Builder
	if code := compareFiles(&out, spec, base, file("b.json", 101, 99, 0)); code != 0 {
		t.Errorf("within bounds: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, spec, base, file("c.json", 90, 97, 0)); code != 1 {
		t.Errorf("rate fell 3%%: exit %d, want 1\n%s", code, out.String())
	}
	for _, want := range []string{"better", "worse", "unresolved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("verdict %q missing from:\n%s", want, out.String())
		}
	}
	if code := compareFiles(io.Discard, spec, base, file("d.json", 100, 100, 1)); code != 1 {
		t.Errorf("one more failed check: exit %d, want 1", code)
	}
}
