// Command flacbench regenerates every table and figure of the FlacOS
// paper's evaluation, plus the ablations behind its design claims. It is
// a loop over experiments.Table: `flacbench -h` prints the experiments
// that table holds, and an experiment that misses one of its acceptance
// gates makes flacbench exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"flacos/internal/experiments"
	"flacos/internal/torture"
)

func main() {
	exp := flag.String("experiment", "all", "which experiment to run: a name printed by -list, or all")
	quick := flag.Bool("quick", false, "run reduced workloads (CI-sized, same shapes)")
	list := flag.Bool("list", false, "list available experiments, one per line, and exit")
	benchJSON := flag.Bool("bench-json", false, "write each experiment's machine-readable headline to BENCH_<name>.json")
	var tf experiments.TortureFlags
	flag.Int64Var(&tf.Seed, "seed", 0, "torture: replay a single seed instead of the sweep")
	flag.StringVar(&tf.Break, "torture-break", "", "torture: enable a deliberately broken sync path ("+
		strings.Join(torture.Breaks(), "|")+"); the run must then be caught as FAIL or flacbench exits 1")
	flag.StringVar(&tf.Workload, "torture-workload", "", "torture: restrict the matrix to one workload ("+
		strings.Join(torture.WorkloadNames(), "|")+")")
	flag.Usage = usage
	flag.Parse()

	if *list {
		for _, e := range experiments.Table {
			fmt.Println(e.Name)
		}
		return
	}
	if err := tf.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "flacbench: %v\n", err)
		os.Exit(2)
	}
	var selected []experiments.Experiment
	for _, e := range experiments.Table {
		if *exp == "all" || *exp == e.Name {
			if e.Name == "torture" {
				e.Run = func(q bool) *experiments.Result { return experiments.Torture(q, tf) }
			}
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "flacbench: unknown experiment %q\n", *exp)
		usage()
		os.Exit(2)
	}

	exitCode := 0
	for _, e := range selected {
		start := time.Now()
		res := e.Run(*quick)
		fmt.Println(res.String())
		for _, f := range res.Failures {
			fmt.Fprintf(os.Stderr, "flacbench: %s failed its gate: %s\n", e.Name, f)
			exitCode = 1
		}
		for _, a := range res.Artifacts {
			if err := os.WriteFile(a.Name, a.Data, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "flacbench: could not write %s: %v\n", a.Name, err)
				exitCode = 1
				continue
			}
			fmt.Fprintf(os.Stderr, "flacbench: %s artifact written to %s\n", e.Name, a.Name)
		}
		if *benchJSON {
			if res.Bench == nil {
				// An explicitly requested artifact that doesn't exist is an
				// error, not a silent pass; under -experiment all only the
				// experiments that publish headlines write files.
				if *exp != "all" {
					fmt.Fprintf(os.Stderr, "flacbench: -bench-json: %s publishes no bench headline\n", e.Name)
					exitCode = 1
				}
			} else if err := writeBenchJSON(res.Bench); err != nil {
				fmt.Fprintf(os.Stderr, "flacbench: could not write bench JSON for %s: %v\n", e.Name, err)
				exitCode = 1
			}
		}
		fmt.Printf("(%s completed in %.1fs wall time)\n\n", e.Name, time.Since(start).Seconds())
	}
	os.Exit(exitCode)
}

// usage prints the experiment table and the flags.
func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintf(w, "Usage: flacbench [flags]\n\nExperiments (-experiment NAME, default all):\n")
	for _, e := range experiments.Table {
		fmt.Fprintf(w, "  %-11s %s\n", e.Name, e.Doc)
	}
	fmt.Fprintf(w, "\nFlags:\n")
	flag.PrintDefaults()
}

// writeBenchJSON dumps one experiment's headline numbers to
// BENCH_<name>.json — the machine-readable artifact CI uploads so the
// bench trajectory is tracked across PRs.
func writeBenchJSON(b *experiments.Bench) error {
	if err := b.Validate(); err != nil {
		return fmt.Errorf("refusing to write malformed headline: %w", err)
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	path := fmt.Sprintf("BENCH_%s.json", b.Name)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "flacbench: bench headline written to %s\n", path)
	return nil
}
