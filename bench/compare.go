package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
)

// spec is the part of BENCHMARK.json -compare needs: the end-to-end
// metrics with the direction in which each improves and the share of the
// first file's value by which it may worsen.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) {
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		fatal("read %s: %v", path, err)
	}
}

// compareFiles applies the bounds of the BENCHMARK.json at specPath to
// every pairing of workload and end-to-end metric in two results files, a
// the baseline and b the candidate, and prints one row per pairing:
//
//	worse       b is worse than a by more than the bound
//	better      b is better than a by more than the bound
//	same        within the bound either way
//	unresolved  the repetitions inside a or b spread wider than the bound,
//	            so a difference of that size cannot be told from noise
//
// Failed output checks have no bound: any increase is worse. It returns 1
// if any row is worse.
func compareFiles(out io.Writer, specPath, pathA, pathB string) int {
	var sp spec
	readJSON(specPath, &sp)
	var a, b results
	readJSON(pathA, &a)
	readJSON(pathB, &b)
	code := 0
	fmt.Fprintf(out, "%-16s %-22s %18s %18s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, n := range slices.Sorted(maps.Keys(a.Workloads)) {
		ra, rb := a.Workloads[n], b.Workloads[n]
		if ra == nil || rb == nil {
			fmt.Fprintf(out, "%-16s missing from one file: worse\n", n)
			code = 1
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			change := ratio(vb-va, va) // positive: b is larger
			worsening := change
			if m.Better == "higher" {
				worsening = -change
			}
			verdict := "same"
			switch {
			case ra.Spread[m.Name] > m.Bound || rb.Spread[m.Name] > m.Bound:
				verdict = "unresolved"
			case worsening > m.Bound:
				verdict = "worse"
				code = 1
			case worsening < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(out, "%-16s %-22s %18.4f %18.4f %+8.3f%% %6.1f%%  %s\n", n, m.Name, va, vb, 100*change, 100*m.Bound, verdict)
		}
		verdict := "same"
		if rb.Failed*ra.Attempted > ra.Failed*rb.Attempted { // failed share went up
			verdict = "worse"
			code = 1
		}
		fmt.Fprintf(out, "%-16s %-22s %18d %18d %9s %7s  %s\n", n, "failed (of attempted)", ra.Failed, rb.Failed, "", "any", verdict)
	}
	return code
}
