package experiments

import (
	"fmt"
	"slices"
	"strings"

	"flacos/internal/torture"
)

// TortureFlags are flacbench's overrides of the torture matrix.
type TortureFlags struct {
	// Seed, when nonzero, replays that one seed instead of the sweep.
	Seed int64
	// Break enables a named deliberately-broken sync path. The contract
	// then inverts: the matrix MUST fail (the checkers must catch the
	// planted bug), so a clean run is the failure.
	Break string
	// Workload restricts the matrix to one workload ("" = all registered).
	Workload string
}

// Validate checks the flags against the registered break and workload
// names, so a typo is reported before any sweep starts.
func (fl TortureFlags) Validate() error {
	if fl.Break != "" && !slices.Contains(torture.Breaks(), fl.Break) {
		return fmt.Errorf("unknown -torture-break %q (valid: %s)", fl.Break, strings.Join(torture.Breaks(), ", "))
	}
	if fl.Workload != "" && torture.ByName(fl.Workload) == nil {
		return fmt.Errorf("unknown -torture-workload %q (valid: %s)", fl.Workload, strings.Join(torture.WorkloadNames(), ", "))
	}
	return nil
}

// Torture sweeps every selected workload under every seed: eight seeds
// at nightly scale, two at CI scale. Each failing sweep's report (seed +
// compact event trace, enough to replay it with -seed) lands in the
// torture-failures.txt artifact, and its merged flight-recorder extract
// in torture-trace-<workload>-seed<N>.txt (human timeline) and .json
// (Chrome trace_event, for chrome://tracing or ui.perfetto.dev).
func Torture(quick bool, fl TortureFlags) *Result {
	res := newResult("torture: seeded rack-wide fault sweep",
		"workload", "seed", "faults", "ops", "events", "flips", "drops", "verdict")
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	cfg := torture.Config{OpsPerClient: 400, Events: 6, Break: fl.Break}
	if quick {
		seeds = []int64{1, 7}
		cfg.OpsPerClient, cfg.Events = 120, 4
	}
	if fl.Seed != 0 {
		seeds = []int64{fl.Seed}
	}
	names := torture.WorkloadNames()
	if fl.Workload != "" {
		names = []string{fl.Workload}
	}

	var reports strings.Builder
	failed, caught := 0, 0
	for _, name := range names {
		for _, seed := range seeds {
			cfg.Seed = seed
			rep := torture.Run(torture.ByName(name), cfg)
			res.Table.AddRow(rep.Workload, fmt.Sprintf("%d", rep.Seed), rep.Faults.String(),
				fmt.Sprintf("%d", rep.Ops), fmt.Sprintf("%d", len(rep.Events)),
				fmt.Sprintf("%d", rep.BitFlips), fmt.Sprintf("%d", rep.DroppedWBs), rep.Verdict())
			if rep.Passed() {
				continue
			}
			failed++
			reports.WriteString(rep.String() + "\n")
			// Under a planted break the failing sweeps are the expected
			// outcome; their trace extracts are still kept — a cheap way
			// to eyeball what the recorder captures around a failure.
			base := fmt.Sprintf("torture-trace-%s-seed%d", rep.Workload, rep.Seed)
			if rep.TraceTimeline != "" {
				res.Artifacts = append(res.Artifacts, Artifact{base + ".txt", []byte(rep.TraceTimeline)})
			}
			if rep.TraceJSON != nil {
				res.Artifacts = append(res.Artifacts, Artifact{base + ".json", rep.TraceJSON})
			}
			if rep.Caught() {
				caught++
			}
			// A stuck sweep fails even under a break: the checkers caught
			// nothing, and something stopped every client.
			if fl.Break == "" || !rep.Caught() {
				res.Fail("sweep failed:\n%s", rep)
			}
		}
	}
	switch {
	case fl.Break == "" && failed > 0:
		res.Artifacts = append(res.Artifacts, Artifact{"torture-failures.txt", []byte(reports.String())})
	case fl.Break != "" && caught == 0:
		res.Fail("broken path %q was NOT caught by any sweep", fl.Break)
	case fl.Break != "":
		res.Table.AddRow("break:"+fl.Break, "", "", "", "", "", "",
			fmt.Sprintf("caught by %d sweep(s), as required", caught))
	}
	return res
}
