// Command bench is the repository's benchmark: six deterministic rack
// workloads driven by one goroutine, end-to-end metrics in simulated time
// and exact host cost, and a separate traced run that attributes every
// simulated nanosecond to a layer. BENCHMARK.json at the repository root
// names its command, workloads, metrics and regression bounds; README.md
// beside this file defines them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// outDir is where results and traces go unless -out says otherwise,
// relative to the repository root the benchmark is run from.
var outDir = filepath.Join("bench", "out")

// minReps is how many repetitions on fresh racks a run makes at least;
// set-up time, allocation counts and the rack-store workloads' bounded
// caches are only as steady as the median over them.
const minReps = 3

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "run this one workload in-process (default: every workload, each in a child process)")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 8, "keep repeating a workload on fresh racks until this much wall time has passed (at least 3 repetitions)")
	trace := fs.Int("trace", 0, "1: the traced run that produces the per-layer metrics")
	layers := fs.Bool("layers", false, "same as -trace 1")
	out := fs.String("out", "", "write the results JSON here (default bench/out/results.json or layers.json when running every workload)")
	compare := fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
	fs.Parse(os.Args[1:])
	if *layers || *trace != 0 {
		*trace = 1
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fatal("usage: bench -compare a.json b.json")
		}
		// The bounds come from BENCHMARK.json in the working directory, the
		// repository root the benchmark is run from.
		os.Exit(compareFiles(os.Stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)))
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fatal("unknown workload %q", *name)
		}
		res := runWorkload(os.Stdout, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, false, outDir)
		if *out != "" {
			writeJSON(*out, results{Env: environment(), Seed: *seed, Trace: *trace, Workloads: map[string]*result{w.name: res}})
		}
		// The last line of standard output is the contract with the driver.
		line, _ := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Failed == 0, res.Attempted, res.Failed, res.Metrics})
		fmt.Println(string(line))
		if res.Failed > 0 {
			os.Exit(1)
		}
	default:
		os.Exit(runAll(*seed, *seconds, *trace, *out))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome in the results file.
type result struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Reps      int               `json:"reps"`
	Notes     map[string]any    `json:"notes"`
	Metrics   map[string]metric `json:"metrics"`
	// Spread is (max-min)/median of a metric over the repetitions, for the
	// metrics every repetition measures; -compare calls a pairing whose
	// spread exceeds its bound unresolved.
	Spread map[string]float64 `json:"spread,omitempty"`
}

// results is the file -out writes and -compare reads.
type results struct {
	Env       map[string]any     `json:"env"`
	Seed      uint64             `json:"seed"`
	Trace     int                `json:"trace"`
	Workloads map[string]*result `json:"workloads"`
}

func environment() map[string]any {
	return map[string]any{"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0)}
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", " ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		fatal("write %s: %v", path, err)
	}
}

// runAll runs every workload in a child process of its own, so that peak
// RSS is per workload, and gathers the children's results into one file.
func runAll(seed uint64, seconds, trace int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	if out == "" {
		out = filepath.Join(outDir, []string{"results.json", "layers.json"}[trace])
	}
	all := results{Env: environment(), Seed: seed, Trace: trace, Workloads: map[string]*result{}}
	code := 0
	start := time.Now()
	for _, w := range workloads {
		part := out + "." + w.name + ".part"
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", part)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.name, err)
			code = 1
		}
		var one results
		if data, err := os.ReadFile(part); err == nil && json.Unmarshal(data, &one) == nil {
			all.Workloads[w.name] = one.Workloads[w.name]
		}
		os.Remove(part)
	}
	writeJSON(out, all)
	fmt.Printf("\n%d workloads in %.1fs, results in %s\n", len(all.Workloads), time.Since(start).Seconds(), out)
	return code
}

// printMetrics lists every metric by name with its unit, sorted.
func printMetrics(w io.Writer, ms map[string]metric) {
	for _, n := range slices.Sorted(maps.Keys(ms)) {
		fmt.Fprintf(w, "  %-40s %18.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
