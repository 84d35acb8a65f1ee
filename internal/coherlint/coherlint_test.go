package coherlint

import (
	"strings"
	"testing"
)

// TestCorpus loads each planted-violation package under testdata/src
// (invisible to ./... wildcards, so the repo stays buildable and
// flacvet-clean) and checks the full analyzer suite reports exactly the
// diagnostics marked by // want comments — nothing more, nothing less.
func TestCorpus(t *testing.T) {
	for _, name := range []string{"escape", "publish", "invalidate", "retention"} {
		t.Run(name, func(t *testing.T) {
			pkgs, err := Load(".", "./testdata/src/"+name)
			if err != nil {
				t.Fatalf("loading corpus package: %v", err)
			}
			diags, err := Run(All(), pkgs)
			if err != nil {
				t.Fatalf("running analyzers: %v", err)
			}
			wants, err := collectWants(pkgs)
			if err != nil {
				t.Fatal(err)
			}
			if len(wants) == 0 {
				t.Fatal("corpus package has no // want expectations; the test would vacuously pass")
			}
			for _, problem := range checkCorpus(diags, wants) {
				t.Error(problem)
			}
		})
	}
}

// TestRepoIsClean runs the whole suite over the repository proper — the
// same gate CI's flacvet job applies. Production arena code must carry
// zero coherence-contract diagnostics (testdata is excluded by ./...).
func TestRepoIsClean(t *testing.T) {
	diags, err := Run(All(), loadRepo(t))
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("coherence-contract violation in production code: %s", d)
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("all")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(all) = %v analyzers, err %v", len(all), err)
	}
	one, err := ByName("read-without-invalidate")
	if err != nil || len(one) != 1 || one[0] != InvalidateAnalyzer {
		t.Fatalf("ByName(read-without-invalidate) = %v, err %v", one, err)
	}
	if _, err := ByName("no-such-rule"); err == nil || !strings.Contains(err.Error(), "no-such-rule") {
		t.Fatalf("ByName(no-such-rule) error = %v, want mention of the bad name", err)
	}
}
