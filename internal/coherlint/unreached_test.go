package coherlint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"os"
	"slices"
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
//     the methods it selects:
//   - a selection of a method whose receiver is a concrete (or generic)
//     type makes that type's method live, and no other (methodKey); a
//     selection through an interface or a type-parameter constraint only
//     records the method's name;
//   - a method is also live when its receiver type is live and either an
//     interface selection in live code names it or the standard library
//     calls that name through an interface (stdlibMethods).
//
// The same live set then answers three more questions, each a rule of its
// own:
//
//   - rule 2, which knobs no program turns: an exported field of a live
//     exported *Config struct type that every program sets to one value,
//     by its writes and by its default fill (findOneValued);
//   - rule 3, which fields live code writes and never reads (findWriteOnly);
//   - rule 4, which parameters of functions called only statically take
//     one constant at every live call, or are never used (findOneValueParams).
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

// findingKind says which rule flagged a finding.
type findingKind int

const (
	unreachedDeclaration findingKind = iota // rule 1: Key is [Recv.]Name
	oneValueField                           // rule 2: Key ends Type.Field
	writeOnlyField                          // rule 3: Key ends Type.Field
	oneValueParam                           // rule 4: Key ends [Recv.]Func(param)
)

// unreachedDecl is one finding: a top-level declaration no program
// reaches, or a field or parameter no program needs.
type unreachedDecl struct {
	Key   string // module-relative package path, then the rest as Kind says
	Pos   token.Position
	Lines int
	Kind  findingKind
	Value string // the one value a one-value field or parameter takes; "" for an unused parameter
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
	// layout marks a type carrying a //flac: annotation: a layout the
	// coherence analyzers read, whose fields stay as the fabric sees them.
	layout bool
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
		prefix := relPath(pkg.PkgPath, module) + "."
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
								nodes: []ast.Node{spec}, start: min(start, docStart(spec, spec.Doc)), end: end,
								layout: hasFlacDirective(decl.Doc, spec.Doc, spec.Comment)}
							add(d, d.layout)
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
							if key := methodKey(fn, module); key != "" {
								mark(byKey[key])
							} else {
								selected[fn.Name()] = true
							}
							return true
						}
						obj = fn.Origin() // an instantiation's generic function
					}
					if obj == obj.Pkg().Scope().Lookup(obj.Name()) {
						mark(byKey[relPath(obj.Pkg().Path(), module)+"."+obj.Name()])
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
	out = append(out, findOneValued(all, live, module)...)
	out = append(out, findWriteOnly(all, live, module)...)
	out = append(out, findOneValueParams(all, live, module)...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	// A Config field can be both one-valued and write-only; report it once.
	return slices.CompactFunc(out, func(a, b unreachedDecl) bool { return a.Key == b.Key })
}

// findOneValued returns every exported field of a live exported *Config
// struct type that takes one value in every program: a knob no program
// turns, which should be a constant. Live code gives a field a value in
// three ways:
//
//   - it writes it: a composite-literal key, a positional literal (which
//     writes every field), or the left of an assignment; the value is the
//     constant written, and any other write (a variable, ++, +=, &c.F)
//     turns the knob;
//   - it omits it: a literal that leaves the field out, `var c T` and
//     new(T), for T the Config or a struct holding one by value, and an
//     explicit write of the zero value; the field then holds its default
//     fill's value, or zero if it has none;
//   - its default fill writes it: an assignment in the field's own
//     package inside an if whose condition reads the same field,
//     `if c.F == 0 { c.F = d }`, which only an omission reaches.
//
// A field is flagged when no write turns it and those values are at most
// one: every write is the same constant, and every omission gets that
// same value (a field no program writes at all takes only its default).
func findOneValued(all []*declNode, live map[*declNode]bool, module string) []unreachedDecl {
	type field struct {
		pos    token.Position
		zero   string            // the value key of the field type's zero value
		set    map[string]string // its constant writes: value key -> as written
		fills  map[string]string // its default fills' values, the same way
		omit   bool
		turned bool // a write that is not a constant
	}
	fields := map[string]*field{}
	for _, d := range all {
		spec, ok := d.nodes[0].(*ast.TypeSpec)
		if !ok || !live[d] || !isConfigName(d.name) {
			continue
		}
		st, ok := spec.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, f := range st.Fields.List {
			names := f.Names
			if len(names) == 0 { // embedded: the field is named after its type
				names = []*ast.Ident{{Name: recvTypeName(f.Type), NamePos: f.Type.Pos()}}
			}
			for _, id := range names {
				if id.IsExported() {
					fields[d.key+"."+id.Name] = &field{pos: d.pkg.Fset.Position(id.Pos()),
						zero: zeroKey(d.pkg.TypesInfo.TypeOf(f.Type)), set: map[string]string{}, fills: map[string]string{}}
				}
			}
		}
	}
	// omitAll records that a zero value of t leaves every field of t, and
	// of each struct t holds by value, at its default.
	var omitAll func(t types.Type)
	omitAll = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			prefix := typeKey(t, module) + "."
			for i := range u.NumFields() {
				if f := fields[prefix+u.Field(i).Name()]; f != nil {
					f.omit = true
				}
				omitAll(u.Field(i).Type())
			}
		case *types.Array:
			omitAll(u.Elem())
		}
	}

	for _, d := range all {
		if !live[d] {
			continue
		}
		info := d.pkg.TypesInfo
		pkgPath := relPath(d.pkg.PkgPath, module)
		// set records that f is written e (nil: not a constant).
		set := func(f *field, e ast.Expr) {
			if key, show, ok := constValue(info, e); ok {
				f.set[key] = show
			} else {
				f.turned = true
			}
		}
		// readsField reports whether cond selects the field key.
		readsField := func(cond ast.Expr, key string) bool {
			found := false
			ast.Inspect(cond, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok && !found {
					if fieldKey(info, e, module) == key {
						found = true
					}
				}
				return !found
			})
			return found
		}
		var stack []ast.Node
		// write records that lhs is given rhs (nil: not a constant).
		write := func(lhs, rhs ast.Expr) {
			key := fieldKey(info, lhs, module)
			f := fields[key]
			if f == nil {
				return
			}
			if strings.HasPrefix(key, pkgPath+".") {
				for i := len(stack) - 1; i >= 0; i-- {
					ifs, ok := stack[i].(*ast.IfStmt)
					if ok && lhs.Pos() >= ifs.Body.Pos() && readsField(ifs.Cond, key) {
						// The field's own default fill: a value that is not a
						// constant is derived, one value of its own.
						k, show, ok := constValue(info, rhs)
						if !ok {
							k = d.pkg.Fset.Position(lhs.Pos()).String()
							show = "its default fill at " + k
						}
						f.fills[k] = show
						return
					}
				}
			}
			set(f, rhs)
		}
		for _, n := range d.nodes {
			ast.Inspect(n, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						var rhs ast.Expr
						if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
							rhs = n.Rhs[i]
						}
						write(lhs, rhs)
					}
				case *ast.IncDecStmt:
					write(n.X, nil)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X, nil)
					}
				case *ast.ValueSpec:
					if len(n.Values) == 0 && n.Type != nil {
						omitAll(info.TypeOf(n.Type))
					}
				case *ast.CallExpr:
					if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) == 1 {
						if _, ok := info.Uses[id].(*types.Builtin); ok && id.Name == "new" {
							omitAll(info.TypeOf(n.Args[0]))
						}
					}
				case *ast.CompositeLit:
					t := deref(info.TypeOf(n))
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					prefix := typeKey(t, module) + "."
					keyed := map[string]bool{}
					for i, elt := range n.Elts {
						name, val := "", elt
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							name, val = kv.Key.(*ast.Ident).Name, kv.Value
						} else {
							name = st.Field(i).Name()
						}
						keyed[name] = true
						if f := fields[prefix+name]; f != nil {
							set(f, val)
						}
					}
					for i := range st.NumFields() {
						if name := st.Field(i).Name(); !keyed[name] {
							if f := fields[prefix+name]; f != nil {
								f.omit = true
							}
							omitAll(st.Field(i).Type())
						}
					}
				}
				return true
			})
		}
	}

	var out []unreachedDecl
	for key, f := range fields {
		if f.turned {
			continue
		}
		values := map[string]string{}
		for k, show := range f.set {
			if k == f.zero {
				f.omit = true // a written zero gets the default fill too
			} else {
				values[k] = show
			}
		}
		if f.omit {
			if len(f.fills) == 0 {
				values[f.zero] = "its zero value"
			}
			maps.Copy(values, f.fills)
		}
		if len(values) <= 1 {
			d := unreachedDecl{Key: key, Pos: f.pos, Lines: 1, Kind: oneValueField, Value: "its zero value"}
			for _, show := range values {
				d.Value = show
			}
			out = append(out, d)
		}
	}
	return out
}

// findWriteOnly returns every field of a live struct type declared in the
// module that live code writes and never reads (rule 3). A write is the
// left of an assignment or of ++ and --, a composite-literal key (a
// positional literal writes every field), or a sync/atomic Add or Store
// on the field whose result is dropped. Any other selection of the field
// reads it, &x.f handed to anything but an atomic Add or Store included.
// A field with a struct tag (reflection reads it), a field of a //flac:
// layout type, an embedded field and _ are exempt.
func findWriteOnly(all []*declNode, live map[*declNode]bool, module string) []unreachedDecl {
	type field struct {
		pos           token.Position
		written, read bool
	}
	fields := map[string]*field{}
	for _, d := range all {
		spec, ok := d.nodes[0].(*ast.TypeSpec)
		if !ok || !live[d] || d.layout {
			continue
		}
		st, ok := spec.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, f := range st.Fields.List {
			if f.Tag != nil {
				continue
			}
			for _, id := range f.Names { // an embedded field has none
				if id.Name != "_" {
					fields[d.key+"."+id.Name] = &field{pos: d.pkg.Fset.Position(id.Pos())}
				}
			}
		}
	}
	for _, d := range all {
		if !live[d] {
			continue
		}
		info := d.pkg.TypesInfo
		var stack []ast.Node
		for _, n := range d.nodes {
			ast.Inspect(n, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if f := fields[fieldKey(info, n, module)]; f != nil {
						if isFieldWrite(info, stack) {
							f.written = true
						} else {
							f.read = true
						}
					}
				case *ast.CompositeLit:
					t := deref(info.TypeOf(n))
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					prefix := typeKey(t, module) + "."
					for i, elt := range n.Elts {
						name := st.Field(i).Name()
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							name = kv.Key.(*ast.Ident).Name
						}
						if f := fields[prefix+name]; f != nil {
							f.written = true
						}
					}
				}
				return true
			})
		}
	}
	var out []unreachedDecl
	for key, f := range fields {
		if f.written && !f.read {
			out = append(out, unreachedDecl{Key: key, Pos: f.pos, Lines: 1, Kind: writeOnlyField})
		}
	}
	return out
}

// isFieldWrite reports whether the field selection on top of stack (the
// path from a declaration down to it) writes the field rather than reads
// it, as findWriteOnly counts writes.
func isFieldWrite(info *types.Info, stack []ast.Node) bool {
	// up returns the i-th enclosing node above the selection, parentheses
	// skipped, and the child it was reached from.
	i := len(stack) - 1
	up := func() (parent, child ast.Node) {
		child = stack[i]
		for i--; i >= 0; i-- {
			if _, ok := stack[i].(*ast.ParenExpr); !ok {
				return stack[i], child
			}
			child = stack[i]
		}
		return nil, child
	}
	dropped := func() bool { // the call above is a statement of its own
		p, _ := up()
		_, ok := p.(*ast.ExprStmt)
		return ok
	}
	switch p, child := up(); p := p.(type) {
	case *ast.AssignStmt:
		return slices.Contains(p.Lhs, child.(ast.Expr))
	case *ast.IncDecStmt:
		return true
	case *ast.SelectorExpr: // x.f.Add(1), x.f.Store(v) on an atomic type
		sel := info.Selections[p]
		if sel == nil || sel.Kind() != types.MethodVal || !isAtomicWrite(sel.Obj()) {
			return false
		}
		call, _ := up()
		return isCallOf(call, p) && dropped()
	case *ast.UnaryExpr: // atomic.AddUint64(&x.f, 1), atomic.StoreInt32(&x.f, v)
		if p.Op != token.AND {
			return false
		}
		call, _ := up()
		c, ok := call.(*ast.CallExpr)
		if !ok {
			return false
		}
		fn := calleeFunc(info, c.Fun)
		return fn != nil && isAtomicWrite(fn) && dropped()
	}
	return false
}

// isAtomicWrite reports whether obj is a sync/atomic Add or Store, as a
// function or as a method of one of its types.
func isAtomicWrite(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" &&
		(strings.HasPrefix(obj.Name(), "Add") || strings.HasPrefix(obj.Name(), "Store"))
}

// isCallOf reports whether n is a call whose function is fun.
func isCallOf(n ast.Node, fun ast.Expr) bool {
	c, ok := n.(*ast.CallExpr)
	return ok && ast.Unparen(c.Fun) == fun
}

// calleeFunc is the function or method a call's function expression
// names, or nil when it names none (a func value, a conversion, a builtin).
func calleeFunc(info *types.Info, fun ast.Expr) *types.Func {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr: // an explicit instantiation
		return calleeFunc(info, f.X)
	case *ast.IndexListExpr:
		return calleeFunc(info, f.X)
	}
	return nil
}

// findOneValueParams returns every parameter of a live function or method
// called only statically that takes one constant at every live call, or
// that its body never uses (rule 4): findOneValued's rule for Config
// fields, applied to parameters. Exempt are a function used as a value
// (a callback, a method value or expression), a method whose name and
// signature an interface the module sees fixes, or that the standard
// library calls by name (stdlibMethods), and a variadic parameter.
func findOneValueParams(all []*declNode, live map[*declNode]bool, module string) []unreachedDecl {
	type param struct {
		name   string
		pos    token.Position
		unused bool
		values map[string]string // the constants calls pass: value key -> as written
		turned bool              // a call passes something that is not a constant
	}
	type function struct {
		params []*param
		calls  int
		value  bool // live code uses it other than by calling it
	}
	fixed := interfaceMethods(all)
	used := map[types.Object]bool{}
	seenPkg := map[*Package]bool{}
	funcs := map[string]*function{}
	for _, d := range all {
		fd, ok := d.nodes[0].(*ast.FuncDecl)
		if !ok || !live[d] || fd.Body == nil {
			continue
		}
		fn := d.pkg.TypesInfo.Defs[fd.Name].(*types.Func)
		if d.recv != "" && (stdlibMethods[d.name] || fixed[methodSig(fn)]) {
			continue
		}
		if !seenPkg[d.pkg] {
			seenPkg[d.pkg] = true
			for _, obj := range d.pkg.TypesInfo.Uses {
				used[obj] = true
			}
		}
		sig := fn.Type().(*types.Signature)
		f := &function{}
		for i := range sig.Params().Len() {
			v := sig.Params().At(i)
			if sig.Variadic() && i == sig.Params().Len()-1 {
				f.params = append(f.params, nil)
				continue
			}
			name := v.Name()
			if name == "" || name == "_" { // never used, so keyed by position
				name = fmt.Sprintf("#%d", i)
			}
			f.params = append(f.params, &param{name: name, pos: d.pkg.Fset.Position(v.Pos()),
				unused: !used[v], values: map[string]string{}})
		}
		funcs[d.key] = f
	}
	for _, d := range all {
		if !live[d] {
			continue
		}
		info := d.pkg.TypesInfo
		var stack []ast.Node
		for _, n := range d.nodes {
			ast.Inspect(n, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := info.Uses[id].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				key := relPath(fn.Pkg().Path(), module) + "." + fn.Name()
				if fn.Type().(*types.Signature).Recv() != nil {
					key = methodKey(fn, module)
				}
				f := funcs[key]
				if f == nil {
					return true
				}
				// Climb from the name to the expression a call would call
				// (through a selector, an instantiation, parentheses); the
				// node above that is the call, if it is one.
				callee, i := ast.Node(id), len(stack)-2
			climb:
				for ; i >= 0; i-- {
					switch p := stack[i].(type) {
					case *ast.SelectorExpr:
						if sel := info.Selections[p]; sel != nil && sel.Kind() == types.MethodExpr {
							break climb // (*T).M: a value, called or not
						}
					case *ast.IndexExpr:
						if p.X != callee {
							break climb
						}
					case *ast.IndexListExpr, *ast.ParenExpr:
					default:
						break climb
					}
					callee = stack[i]
				}
				var call *ast.CallExpr
				if i >= 0 {
					call, _ = stack[i].(*ast.CallExpr)
				}
				if call == nil || call.Fun != callee {
					f.value = true
					return true
				}
				f.calls++
				var spread bool // f(g()), g returning several values
				if len(call.Args) == 1 {
					_, spread = info.TypeOf(call.Args[0]).(*types.Tuple)
				}
				for j, p := range f.params {
					switch {
					case p == nil:
					case spread || j >= len(call.Args):
						p.turned = true
					default:
						if k, show, ok := constValue(info, call.Args[j]); ok {
							p.values[k] = show
						} else {
							p.turned = true
						}
					}
				}
				return true
			})
		}
	}
	var out []unreachedDecl
	for key, f := range funcs {
		if f.value {
			continue
		}
		for _, p := range f.params {
			if p == nil {
				continue
			}
			d := unreachedDecl{Key: key + "(" + p.name + ")", Pos: p.pos, Lines: 1, Kind: oneValueParam}
			switch {
			case p.unused:
			case f.calls > 0 && !p.turned && len(p.values) == 1:
				for _, show := range p.values {
					d.Value = show
				}
			default:
				continue
			}
			out = append(out, d)
		}
	}
	return out
}

// interfaceMethods keys (methodSig) every method of every interface type
// the module's code sees: one it declares or names, and one a function it
// uses takes or returns (sort.Sort's sort.Interface). A concrete method
// with one of these names and signatures may be called through that
// interface, so its parameters are fixed.
func interfaceMethods(all []*declNode) map[string]bool {
	fixed := map[string]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for m := range it.Methods() {
				fixed[methodSig(m)] = true
			}
		}
	}
	seen := map[*Package]bool{}
	for _, d := range all {
		if seen[d.pkg] {
			continue
		}
		seen[d.pkg] = true
		info := d.pkg.TypesInfo
		for _, tv := range info.Types {
			add(tv.Type)
		}
		for _, objs := range []map[*ast.Ident]types.Object{info.Defs, info.Uses} {
			for _, obj := range objs {
				if obj == nil {
					continue
				}
				add(obj.Type())
				if sig, ok := obj.Type().(*types.Signature); ok {
					for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
						for v := range tup.Variables() {
							add(v.Type())
						}
					}
				}
			}
		}
	}
	return fixed
}

// methodSig keys a method by its name and its parameter and result types,
// so a concrete method and an interface's method of the same shape match
// across packages type-checked apart.
func methodSig(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	b.WriteString(fn.Name())
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for v := range tup.Variables() {
			b.WriteString(types.TypeString(v.Type(), nil) + ",")
		}
		b.WriteByte(')')
	}
	return b.String()
}

// constValue keys the constant e is, with the way it reads; ok is false
// when e is not a constant (or is nil).
func constValue(info *types.Info, e ast.Expr) (key, show string, ok bool) {
	if e == nil {
		return "", "", false
	}
	tv := info.Types[e]
	if tv.IsNil() {
		return "zero", "nil", true
	}
	if tv.Value == nil {
		return "", "", false
	}
	return tv.Value.ExactString(), tv.Value.String(), true
}

// fieldKey keys the struct field a selector selects (the type that
// declares it, then its name), or is "" when e selects no field. A field
// promoted from an embedded struct is keyed by the struct that declares it.
func fieldKey(info *types.Info, e ast.Expr, module string) string {
	se, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	sel := info.Selections[se]
	if sel == nil || sel.Kind() != types.FieldVal {
		return ""
	}
	t := sel.Recv()
	idx := sel.Index()
	for _, i := range idx[:len(idx)-1] {
		t = deref(t).Underlying().(*types.Struct).Field(i).Type()
	}
	return typeKey(deref(t), module) + "." + se.Sel.Name
}

// zeroKey is the value key of t's zero value, as findOneValued keys a
// constant write.
func zeroKey(t types.Type) string {
	if b, ok := t.Underlying().(*types.Basic); ok {
		switch {
		case b.Info()&types.IsNumeric != 0:
			return "0"
		case b.Info()&types.IsString != 0:
			return `""`
		case b.Info()&types.IsBoolean != 0:
			return "false"
		}
	}
	return "zero"
}

// typeKey is a named type's key (module-relative package path, then its
// name), or "" for an unnamed or predeclared type.
func typeKey(t types.Type, module string) string {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return relPath(named.Obj().Pkg().Path(), module) + "." + named.Obj().Name()
}

// methodKey keys the method a selection names when its receiver is a
// concrete type, so a call marks that type's method alone. It is "" when
// the call goes through an interface or a type-parameter constraint,
// which can reach the method of that name on any live type.
func methodKey(fn *types.Func, module string) string {
	recv := deref(fn.Type().(*types.Signature).Recv().Type())
	if types.IsInterface(recv) || typeKey(recv, module) == "" {
		return ""
	}
	return typeKey(recv, module) + "." + fn.Name()
}

// isConfigName reports whether a type name is an exported *Config name.
func isConfigName(name string) bool {
	return ast.IsExported(name) && strings.HasSuffix(name, "Config")
}

// relPath is a package path relative to the module.
func relPath(path, module string) string {
	return strings.TrimPrefix(strings.TrimPrefix(path, module), "/")
}

func deref(t types.Type) types.Type {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		return p.Elem()
	}
	return t
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
// declaration no package main reaches, and every Config field no program
// sets, must be listed in UNREACHED.txt with the reason it stays, and
// every listed one must still be unreached or unset, so the list only
// shrinks.
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
		if _, ok := list[d.Key]; ok {
			continue
		}
		switch d.Kind {
		case oneValueField:
			t.Errorf("%s:%d: %s is set to %s in every program: make it a constant or derive it, or list it in UNREACHED.txt with its reason",
				d.Pos.Filename, d.Pos.Line, d.Key, d.Value)
		case writeOnlyField:
			t.Errorf("%s:%d: %s is written and never read by any program: delete it with what feeds it, or list it in UNREACHED.txt with its reason",
				d.Pos.Filename, d.Pos.Line, d.Key)
		case oneValueParam:
			what := "is never used"
			if d.Value != "" {
				what = "is passed " + d.Value + " by every call"
			}
			t.Errorf("%s:%d: parameter %s %s: delete it or fold it to its constant, or list it in UNREACHED.txt with its reason",
				d.Pos.Filename, d.Pos.Line, d.Key, what)
		default:
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
		t.Errorf("UNREACHED.txt lists %s, which a program now reaches (or, for a field, sets) or which no longer exists: remove its line", key)
	}
}

// TestUnreachedCorpus runs the check on a package main that plants five
// dead declarations beside each way a declaration stays live without a
// direct call: a method called through an interface, through a
// type-parameter constraint, by promotion from an embedded type, on a
// generic type's instantiation, as a method value and as a method
// expression, a String only fmt calls, a //flac:shared layout type, and an
// init. One dead method shares its name with a live method of another
// type. Its Config has a field nothing writes, one only its default fill
// writes, one only a dead function writes, two that every program sets to
// the same value (a literal writes it, and its fill gives the literal
// that omits it the same; a literal writes it 0, which its fill turns
// into what the omitting literal gets), and two that are turned: one
// literal sets Literal while another leaves it at zero, and Assigned is
// assigned a value that is not a constant. Rule 3's plants are a field
// only assigned, one only set in a literal and an atomic only Added,
// beside a JSON-tagged field, a field read through an embedded struct, a
// field whose address a function takes and an atomic whose Add result is
// used. Rule 4's are a parameter every call passes nil, one every call
// passes the same number, one never used and a blank one, beside a parameter passed
// two constants, one passed a variable, a function also used as a
// callback, a method called through an interface and a method whose
// signature an interface fixes.
func TestUnreachedCorpus(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/unreached")
	if err != nil {
		t.Fatalf("loading corpus package: %v", err)
	}
	const pkg = "internal/coherlint/testdata/src/unreached."
	want := []string{pkg + "deadHelper", pkg + "deadSetter", pkg + "DeadExported", pkg + "liveType.DeadMethod",
		pkg + "tally.Visit", pkg + "Config.Never", pkg + "Config.Filled", pkg + "Config.DeadSet", pkg + "Config.Seed", pkg + "Config.Zeroed",
		pkg + "counters.assigned", pkg + "counters.literal", pkg + "counters.added",
		pkg + "withHook(hook)", pkg + "scale(factor)", pkg + "describe(verbose)", pkg + "pad(#1)"}
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
