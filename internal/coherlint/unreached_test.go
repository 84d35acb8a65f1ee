package coherlint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The reachability check: which top-level declarations can no program of
// the module reach? It is the technique of Go's deadcode tool (rapid type
// analysis from main, https://go.dev/blog/deadcode), done conservatively
// over the source-typed packages Load returns:
//
//   - roots are main of every package main, every init (a linked package
//     runs its own; one in a package no program links keeps its uses live,
//     which errs on the safe side), every _ declaration, and every type
//     carrying a //flac: annotation (the coherence analyzers read those);
//   - a live declaration makes live every package-level object its syntax
//     uses (TypesInfo.Uses, which also holds every selector's method), and
//     every method name it selects;
//   - a method is live when its receiver type is live and either its name is
//     selected somewhere in live code or the standard library calls that
//     name through an interface (stdlibMethods).
//
// Declarations are keyed by text (package path, receiver, name), never by
// types.Object: a package sees its imports through export data, so the
// object it uses is not the one its defining package was checked with.

// stdlibMethods are method names the standard library calls through its
// own interfaces (fmt, sort, container/heap, io, flag, errors,
// encoding/json and encoding.Text*), so no selector in this module names
// them.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Format": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "Set": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
}

// unreachedDecl is one top-level declaration no program reaches.
type unreachedDecl struct {
	Key   string // module-relative package path, then [Recv.]Name
	Pos   token.Position
	Lines int
}

// declNode is one top-level declaration: a func or method, or one name of
// a type, var or const spec.
type declNode struct {
	pkg   *Package
	key   string
	recv  string // receiver type key for a method, else ""
	name  string
	nodes []ast.Node // syntax whose uses the declaration depends on
	start token.Pos  // its first line, doc comment included
	end   token.Pos
}

// findUnreached returns every declaration of pkgs that no package main of
// pkgs reaches, sorted by key. module is the prefix trimmed from package
// paths in keys.
func findUnreached(pkgs []*Package, module string) []unreachedDecl {
	byKey := map[string]*declNode{}
	var all, roots []*declNode
	mains := map[string]bool{}
	for _, pkg := range pkgs {
		if pkg.Types.Name() == "main" {
			mains[pkg.PkgPath] = true
		}
	}
	for _, pkg := range pkgs {
		prefix := strings.TrimPrefix(strings.TrimPrefix(pkg.PkgPath, module), "/") + "."
		add := func(d *declNode, root bool) {
			if d.name != "_" && !(d.name == "init" && d.recv == "") {
				byKey[d.key] = d
			}
			all = append(all, d)
			if root || d.name == "_" {
				roots = append(roots, d)
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					d := &declNode{pkg: pkg, name: decl.Name.Name, nodes: []ast.Node{decl},
						start: docStart(decl, decl.Doc), end: decl.End()}
					if decl.Recv != nil {
						d.recv = prefix + recvTypeName(decl.Recv.List[0].Type)
						d.key = d.recv + "." + d.name
					} else {
						d.key = prefix + d.name
					}
					add(d, d.recv == "" && (d.name == "init" || d.name == "main" && mains[pkg.PkgPath]))
				case *ast.GenDecl:
					var lastTyped *ast.ValueSpec // a const spec's implicit repetition
					for _, spec := range decl.Specs {
						start, end := spec.Pos(), spec.End()
						if len(decl.Specs) == 1 {
							start, end = docStart(decl, decl.Doc), decl.End()
						}
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							d := &declNode{pkg: pkg, key: prefix + spec.Name.Name, name: spec.Name.Name,
								nodes: []ast.Node{spec}, start: min(start, docStart(spec, spec.Doc)), end: end}
							add(d, hasFlacDirective(decl.Doc, spec.Doc, spec.Comment))
						case *ast.ValueSpec:
							nodes := []ast.Node{spec}
							if spec.Type != nil || len(spec.Values) > 0 {
								lastTyped = spec
							} else if decl.Tok == token.CONST && lastTyped != nil {
								nodes = append(nodes, lastTyped)
							}
							for _, id := range spec.Names {
								add(&declNode{pkg: pkg, key: prefix + id.Name, name: id.Name,
									nodes: nodes, start: min(start, docStart(spec, spec.Doc)), end: end}, false)
							}
						}
					}
				}
			}
		}
	}

	live := map[*declNode]bool{}
	selected := map[string]bool{}
	var work []*declNode
	mark := func(d *declNode) {
		if d != nil && !live[d] {
			live[d] = true
			work = append(work, d)
		}
	}
	for _, d := range roots {
		mark(d)
	}
	for {
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			for _, n := range d.nodes {
				ast.Inspect(n, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := d.pkg.TypesInfo.Uses[id]
					if obj == nil || obj.Pkg() == nil {
						return true
					}
					if fn, ok := obj.(*types.Func); ok {
						if fn.Type().(*types.Signature).Recv() != nil {
							selected[fn.Name()] = true
							return true
						}
						obj = fn.Origin() // an instantiation's generic function
					}
					if obj == obj.Pkg().Scope().Lookup(obj.Name()) {
						path := strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), module), "/")
						mark(byKey[path+"."+obj.Name()])
					}
					return true
				})
			}
		}
		// Methods wait for both their receiver type and their name; either
		// can arrive after the method was first seen, so sweep to a
		// fixed point.
		for _, d := range all {
			if d.recv != "" && !live[d] && live[byKey[d.recv]] && (selected[d.name] || stdlibMethods[d.name]) {
				mark(d)
			}
		}
		if len(work) == 0 {
			break
		}
	}

	var out []unreachedDecl
	for _, d := range all {
		if live[d] || d.name == "init" && d.recv == "" {
			continue
		}
		pos := d.pkg.Fset.Position(d.start)
		end := d.pkg.Fset.Position(d.end)
		out = append(out, unreachedDecl{Key: d.key, Pos: pos, Lines: end.Line - pos.Line + 1})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// docStart is where n begins, counting its doc comment.
func docStart(n ast.Node, doc *ast.CommentGroup) token.Pos {
	if doc != nil {
		return doc.Pos()
	}
	return n.Pos()
}

// recvTypeName is the base type name of a method receiver: T for T, *T,
// T[K] and *T[K, V].
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}

// hasFlacDirective reports whether any of the comment groups holds a
// //flac: annotation.
func hasFlacDirective(groups ...*ast.CommentGroup) bool {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if strings.HasPrefix(c.Text, "//flac:") {
				return true
			}
		}
	}
	return false
}

// readUnreachedList parses UNREACHED.txt: one declaration key per line,
// then whitespace, then the reason it stays. Blank lines and lines
// starting with # are commentary.
func readUnreachedList(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	list := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, key)
		}
		if _, dup := list[key]; dup {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, n, key)
		}
		list[key] = strings.TrimSpace(reason)
	}
	return list, sc.Err()
}

var repo struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// loadRepo type-checks the whole repository once for every test that
// needs it.
func loadRepo(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("typechecks the whole repository; skipped in -short")
	}
	repo.once.Do(func() { repo.pkgs, repo.err = Load("../..", "./...") })
	if repo.err != nil {
		t.Fatalf("loading repository: %v", repo.err)
	}
	return repo.pkgs
}

// TestNothingUnreached is the ratchet on code no program runs: every
// declaration no package main reaches must be listed in UNREACHED.txt with
// the reason it stays, and every listed declaration must still be
// unreached, so the list only shrinks.
func TestNothingUnreached(t *testing.T) {
	pkgs := loadRepo(t)
	const listPath = "../../UNREACHED.txt"
	list, err := readUnreachedList(listPath)
	if err != nil {
		t.Fatal(err)
	}
	dead := findUnreached(pkgs, "flacos")
	unreached := map[string]bool{}
	for _, d := range dead {
		unreached[d.Key] = true
		if _, ok := list[d.Key]; !ok {
			t.Errorf("%s:%d: %s (%d lines) is reached by no program: delete it, move it to a _test.go file, or list it in UNREACHED.txt with its reason",
				d.Pos.Filename, d.Pos.Line, d.Key, d.Lines)
		}
	}
	var stale []string
	for key := range list {
		if !unreached[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("UNREACHED.txt lists %s, which a program now reaches or which no longer exists: remove its line", key)
	}
}

// TestUnreachedCorpus runs the check on a package main that plants three
// dead declarations beside each way a declaration stays live without a
// direct call: a method called through an interface, a String only fmt
// calls, a method value passed as a callback, a //flac:shared layout
// type, and an init.
func TestUnreachedCorpus(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/unreached")
	if err != nil {
		t.Fatalf("loading corpus package: %v", err)
	}
	const pkg = "internal/coherlint/testdata/src/unreached."
	want := []string{pkg + "deadHelper", pkg + "DeadExported", pkg + "liveType.DeadMethod"}
	sort.Strings(want)
	var got []string
	for _, d := range findUnreached(pkgs, "flacos") {
		got = append(got, d.Key)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("unreached declarations:\n  %s\nwant exactly:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
