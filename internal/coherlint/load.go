package coherlint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
)

// Package is one type-checked target package ready for analysis.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Load type-checks the packages matching patterns (relative to dir, the
// module root) and returns them ready for analysis. It shells out to the
// go command for package discovery and dependency export data — the same
// compiler-produced export files `go build` uses — then parses and
// type-checks only the target packages from source, so analyzers see
// full syntax with comments while dependencies stay cheap. Test files
// are not loaded: the contract is enforced where arena code ships.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,CgoFiles,DepOnly,Incomplete,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	byPath := map[string]*listedPkg{}
	var targets []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := &listedPkg{}
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		byPath[lp.ImportPath] = lp
		if !lp.DepOnly {
			targets = append(targets, lp)
		}
	}
	for _, lp := range targets {
		if lp.Error != nil {
			return nil, fmt.Errorf("package %s: %s", lp.ImportPath, lp.Error.Err)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	// Dependency types come from export data; one importer instance
	// caches packages across all targets.
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		lp := byPath[path]
		if lp == nil || lp.Export == "" {
			return nil, fmt.Errorf("coherlint: no export data for %q", path)
		}
		return os.Open(lp.Export)
	})
	sizes := types.SizesFor("gc", runtime.GOARCH)

	var pkgs []*Package
	for _, lp := range targets {
		if len(lp.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range append(append([]string{}, lp.GoFiles...), lp.CgoFiles...) {
			af, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parse %s: %v", name, err)
			}
			files = append(files, af)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		conf := types.Config{Importer: imp, Sizes: sizes}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %v", lp.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			PkgPath:   lp.ImportPath,
			Fset:      fset,
			Files:     files,
			Types:     tpkg,
			TypesInfo: info,
		})
	}
	return pkgs, nil
}
