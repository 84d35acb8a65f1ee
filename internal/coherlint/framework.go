package coherlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one coherence rule: a name usable in //flacvet:ignore
// comments, a one-paragraph contract, and the checking function.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported contract violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns the full coherence-discipline analyzer suite in the order
// the rules are documented.
func All() []*Analyzer {
	return []*Analyzer{
		EscapeAnalyzer,
		PublishAnalyzer,
		InvalidateAnalyzer,
		RetentionAnalyzer,
		RawMaintenanceAnalyzer,
	}
}

// ByName resolves a comma-separated analyzer list ("all" or empty means
// the whole suite).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" || names == "all" {
		return All(), nil
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
	}
	return out, nil
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics (suppressed ones removed) sorted by position.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ignores := collectIgnores(pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				report: func(d Diagnostic) {
					if !ignores.suppressed(d) {
						diags = append(diags, d)
					}
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// ignoreSet maps file -> line -> analyzer names suppressed on that line
// ("*" suppresses every rule).
type ignoreSet map[string]map[int][]string

// suppressed reports whether d sits on (or directly under) a matching
// //flacvet:ignore comment.
func (ig ignoreSet) suppressed(d Diagnostic) bool {
	lines := ig[d.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, name := range append(lines[d.Pos.Line], lines[d.Pos.Line-1]...) {
		if name == "*" || name == d.Analyzer {
			return true
		}
	}
	return false
}

// collectIgnores scans a package's comments for //flacvet:ignore
// directives. Syntax:
//
//	//flacvet:ignore <rule>[,<rule>...] [free-form reason]
//	//flacvet:ignore                     (suppresses every rule; discouraged)
//
// The directive applies to diagnostics on its own line and on the line
// immediately below it (so it can ride above the offending statement).
func collectIgnores(pkg *Package) ignoreSet {
	ig := ignoreSet{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//flacvet:ignore")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				names := []string{"*"}
				if fields := strings.Fields(rest); len(fields) > 0 {
					if rules := parseRuleList(fields[0]); len(rules) > 0 {
						names = rules
					}
				}
				lines := ig[pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					ig[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], names...)
			}
		}
	}
	return ig
}

// parseRuleList splits "a,b,c" into known analyzer names; a token that
// is not an analyzer name means the field was free-form prose (the
// directive then suppresses everything, like a bare ignore).
func parseRuleList(s string) []string {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if !known[tok] {
			return nil
		}
		out = append(out, tok)
	}
	return out
}
