package coherlint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// TestCorpus loads each planted-violation package under testdata/src
// (invisible to ./... wildcards, so the repo stays buildable and
// flacvet-clean) and checks the full analyzer suite reports exactly the
// diagnostics marked by // want comments — nothing more, nothing less.
// The corpora of rules 1 to 4 hand-roll maintenance on purpose, since
// that is what rules 2 and 3 check, so they run without rule 5, which
// would flag every such call; rule 5's own corpus runs the whole suite.
func TestCorpus(t *testing.T) {
	var rules1to4 []*Analyzer
	for _, a := range All() {
		if a != RawMaintenanceAnalyzer {
			rules1to4 = append(rules1to4, a)
		}
	}
	for _, name := range []string{"escape", "publish", "invalidate", "retention", "rawmaint"} {
		t.Run(name, func(t *testing.T) {
			pkgs, err := Load(".", "./testdata/src/"+name)
			if err != nil {
				t.Fatalf("loading corpus package: %v", err)
			}
			analyzers := rules1to4
			if name == "rawmaint" {
				analyzers = All()
			}
			diags, err := Run(analyzers, pkgs)
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

// rawMaintenanceIgnores is how many sites of the repository carry a
// raw-maintenance ignore. It may only fall: move a site onto
// ds.PublishRange or ds.ReadRange and lower it with the count.
const rawMaintenanceIgnores = 13

// TestRepoIsClean runs the whole suite over the repository proper — the
// same gate CI's flacvet job applies. Production arena code must carry
// zero coherence-contract diagnostics (testdata is excluded by ./...),
// and exactly rawMaintenanceIgnores raw-maintenance ignores, each with
// its reason.
func TestRepoIsClean(t *testing.T) {
	pkgs := loadRepo(t)
	diags, err := Run(All(), pkgs)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("coherence-contract violation in production code: %s", d)
	}
	ignores := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					reason, ok := strings.CutPrefix(c.Text, "//flacvet:ignore "+RawMaintenanceAnalyzer.Name)
					if !ok {
						continue
					}
					ignores++
					if strings.TrimSpace(reason) == "" {
						t.Errorf("%s: raw-maintenance ignore without a reason", pkg.Fset.Position(c.Pos()))
					}
				}
			}
		}
	}
	switch {
	case ignores > rawMaintenanceIgnores:
		t.Errorf("%d raw-maintenance ignores, want at most %d: publish with ds.PublishRange and read with ds.ReadRange",
			ignores, rawMaintenanceIgnores)
	case ignores < rawMaintenanceIgnores:
		t.Errorf("%d raw-maintenance ignores: lower rawMaintenanceIgnores from %d to %d", ignores, rawMaintenanceIgnores, ignores)
	}
}

// TestOneWayToWait is the wait ratchet: a CPU that waits for another
// node waits in fabric.Node.Await, which records what it waits on. So no
// non-test file but the primitive's own (fabric's wait.go) names
// runtime.Gosched, or has a for loop that sleeps (time.Sleep) while its
// condition reads fabric memory through a *fabric.Node.
func TestOneWayToWait(t *testing.T) {
	for _, pkg := range loadRepo(t) {
		for _, f := range pkg.Files {
			if pkg.PkgPath == fabricPkgPath && filepath.Base(pkg.Fset.Position(f.Pos()).Filename) == "wait.go" {
				continue
			}
			ast.Inspect(f, func(nd ast.Node) bool {
				switch nd := nd.(type) {
				case *ast.SelectorExpr:
					if calls(pkg.TypesInfo, nd, "runtime.Gosched") {
						t.Errorf("%s: runtime.Gosched outside fabric's wait.go: wait with fabric.Node.Await", pkg.Fset.Position(nd.Pos()))
					}
				case *ast.ForStmt:
					if nd.Cond != nil && readsFabric(pkg.TypesInfo, nd.Cond) && sleeps(pkg.TypesInfo, nd.Body) {
						t.Errorf("%s: a loop that sleeps until fabric memory changes: wait with fabric.Node.Await", pkg.Fset.Position(nd.Pos()))
					}
				}
				return true
			})
		}
	}
}

// calls reports whether sel names the function full ("pkg.Func").
func calls(info *types.Info, sel *ast.SelectorExpr, full string) bool {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.FullName() == full
}

// sleeps reports whether body calls time.Sleep.
func sleeps(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(nd ast.Node) bool {
		if sel, ok := nd.(*ast.SelectorExpr); ok && calls(info, sel, "time.Sleep") {
			found = true
		}
		return !found
	})
	return found
}

// fabricReads are the fabric.Node methods that read fabric memory: the
// loads, the reads and the read-modify-writes.
var fabricReads = map[string]bool{
	"Load64": true, "Read": true, "ReadFresh": true, "AtomicLoad64": true,
	"CAS64": true, "Swap64": true, "Add64": true,
}

// readsFabric reports whether e calls a *fabric.Node method that reads
// fabric memory.
func readsFabric(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(nd ast.Node) bool {
		if sel, ok := nd.(*ast.SelectorExpr); ok && fabricReads[sel.Sel.Name] {
			s := info.Selections[sel]
			found = s != nil && s.Kind() == types.MethodVal && isFabricType(s.Recv(), "Node")
		}
		return !found
	})
	return found
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
