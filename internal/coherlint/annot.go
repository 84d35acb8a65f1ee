package coherlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// annotation is the parsed //flac: contract of one arena-layout type.
type annotation struct {
	Shared bool // //flac:shared: bytes of this type live in the arena
}

// badDirective is a //flac: or //flacvet: comment the parser rejected;
// directives are contract, so typos must be loud, not silently inert.
type badDirective struct {
	Pos token.Pos
	Msg string
}

// annotations holds a package's parsed type annotations.
type annotations struct {
	byType map[types.Object]*annotation
	bad    []badDirective
}

// parseAnnotations walks a package's type declarations and collects
// //flac: directives from their doc comments, plus every malformed or
// misplaced directive in the package.
func parseAnnotations(pass *Pass) *annotations {
	an := &annotations{byType: map[types.Object]*annotation{}}
	attached := map[*ast.Comment]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[ts.Name]
				if obj == nil {
					continue
				}
				for _, doc := range []*ast.CommentGroup{gd.Doc, ts.Doc, ts.Comment} {
					if doc == nil {
						continue
					}
					for _, c := range doc.List {
						if !strings.HasPrefix(c.Text, "//flac:") {
							continue
						}
						attached[c] = true
						an.applyDirective(obj, c)
					}
				}
			}
		}
	}
	// Any //flac: directive not attached to a type declaration does
	// nothing — which is never what its author intended.
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//flac:") && !attached[c] {
					an.bad = append(an.bad, badDirective{
						Pos: c.Pos(),
						Msg: "//flac: directive is not attached to a type declaration (it has no effect here)",
					})
				}
				if rest, ok := strings.CutPrefix(c.Text, "//flacvet:"); ok &&
					!strings.HasPrefix(rest, "ignore") {
					an.bad = append(an.bad, badDirective{
						Pos: c.Pos(),
						Msg: "unknown //flacvet: directive (only //flacvet:ignore exists)",
					})
				}
			}
		}
	}
	return an
}

// applyDirective parses one attached //flac: comment into obj's
// annotation, recording malformed spellings.
func (an *annotations) applyDirective(obj types.Object, c *ast.Comment) {
	a := an.byType[obj]
	if a == nil {
		a = &annotation{}
		an.byType[obj] = a
	}
	body := strings.TrimPrefix(c.Text, "//flac:")
	// Directives take no prose on the same line apart from the value.
	switch {
	case body == "shared":
		a.Shared = true
	case strings.HasPrefix(body, "published-by="):
		name := strings.TrimPrefix(body, "published-by=")
		if !atomicNames[name] {
			an.bad = append(an.bad, badDirective{
				Pos: c.Pos(),
				Msg: "//flac:published-by must name a fabric atomic (AtomicStore64, CAS64, Swap64 or Add64), not " + strconvQuote(name),
			})
		}
	default:
		an.bad = append(an.bad, badDirective{
			Pos: c.Pos(),
			Msg: "unknown //flac: directive " + strconvQuote(body) + " (want //flac:shared or //flac:published-by=<atomic>)",
		})
	}
}

func strconvQuote(s string) string { return "\"" + s + "\"" }
