package coherlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RetentionAnalyzer enforces rule 4 of the coherence contract: an arena
// offset handed to a quiescence RetireTo (or released directly with an
// allocator Free) may be handed to another writer the moment the
// grace period expires. Any later use of that offset on this path —
// directly, or captured by a closure that will run after the grace
// period — is a use-after-free against the arena. The quiescence layer
// cannot catch this at runtime (the memory is still readable, just no
// longer yours), which is what makes the static rule load-bearing.
var RetentionAnalyzer = &Analyzer{
	Name: "grace-period-retention",
	Doc:  "arena offset used (or captured) after being retired to a grace period or freed",
	Run:  runRetention,
}

// retInfo records where and how an offset left this path's ownership.
type retInfo struct {
	pos token.Pos
	how string // "RetireTo" or "Free"
}

// retState maps retired/freed fabric.GPtr variables to their release.
type retState struct {
	retired map[types.Object]retInfo
}

func newRetState() *retState { return &retState{retired: map[types.Object]retInfo{}} }

func (s *retState) Clone() flowState {
	c := newRetState()
	for k, v := range s.retired {
		c.retired[k] = v
	}
	return c
}

func (s *retState) MergeFrom(other flowState) {
	for k, v := range other.(*retState).retired {
		if _, ok := s.retired[k]; !ok {
			s.retired[k] = v
		}
	}
}

func (s *retState) ReplaceWith(other flowState) {
	s.retired = map[types.Object]retInfo{}
	s.MergeFrom(other)
}

type retHooks struct {
	pass *Pass
	w    *flowWalker
}

func (h *retHooks) Call(st flowState, call *ast.CallExpr) {
	s := st.(*retState)
	info := h.pass.TypesInfo
	switch {
	case isRetireCall(info, call):
		// The retired offset is dead to the enclosing function from here
		// on: the freer will free it after the grace period, and "after
		// the grace period" can be any moment from now.
		if obj := rootVar(info, call.Args[1]); obj != nil && isGPtr(obj.Type()) {
			s.retired[obj] = retInfo{pos: call.Pos(), how: "RetireTo"}
		}
	case isFreeCall(info, call):
		if obj := rootVar(info, call.Args[0]); obj != nil && isGPtr(obj.Type()) {
			s.retired[obj] = retInfo{pos: call.Pos(), how: "Free"}
		}
	}
}

func (h *retHooks) Assign(st flowState, id *ast.Ident) {
	// A fresh value overwrites the retired offset; the name is live again.
	s := st.(*retState)
	if obj := h.pass.TypesInfo.Defs[id]; obj != nil {
		delete(s.retired, obj)
	}
	if obj := h.pass.TypesInfo.Uses[id]; obj != nil {
		delete(s.retired, obj)
	}
}

func (h *retHooks) Use(st flowState, id *ast.Ident) {
	s := st.(*retState)
	obj := h.pass.TypesInfo.Uses[id]
	if obj == nil {
		return
	}
	if ri, ok := s.retired[obj]; ok {
		h.pass.Reportf(id.Pos(),
			"arena offset %s is used after being handed to %s at %s; the grace period may already have recycled its memory",
			id.Name, ri.how, h.pass.Fset.Position(ri.pos))
		delete(s.retired, obj) // one report per variable per path
	}
}

func (h *retHooks) FuncLit(st flowState, fl *ast.FuncLit) {
	// A closure created after the retire point captures the offset and
	// may run arbitrarily later: analyze its body under the current
	// path's retired set (its own retires must not leak back out, so the
	// body runs on a clone).
	h.w.walkBody(st.Clone(), fl.Body)
}

func runRetention(pass *Pass) error {
	hooks := &retHooks{pass: pass}
	hooks.w = &flowWalker{hooks: hooks}
	forEachFuncBody(pass, func(decl *ast.FuncDecl) {
		hooks.w.walkBody(newRetState(), decl.Body)
	})
	return nil
}

// rootVar unwraps parens and conversions around an expression and
// returns the variable identifier at its core, if any.
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			// Conversion like fabric.GPtr(off): one argument, type operand.
			if len(x.Args) == 1 {
				if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
					e = x.Args[0]
					continue
				}
			}
			return nil
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			return v
		default:
			return nil
		}
	}
}
