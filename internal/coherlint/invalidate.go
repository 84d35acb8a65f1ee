package coherlint

import (
	"go/ast"
	"go/token"
)

// InvalidateAnalyzer enforces rule 3 of the coherence contract: after a
// fabric atomic load or a ReadFresh — the acquires through which another
// node's publication becomes visible — plain cached reads must be preceded
// by an invalidate, or they decode whatever stale lines this node's cache
// still holds from an earlier residency. A ReadFresh is never itself the
// stale read: it drops its own range and reads past the cache. This is the exact bug the
// torture harness plants with SetBrokenSkipPopInvalidate; the analyzer
// turns it from a probabilistic sweep catch into a diagnostic.
var InvalidateAnalyzer = &Analyzer{
	Name: "read-without-invalidate",
	Doc:  "plain cached read after a fabric atomic load or ReadFresh with no dominating invalidate",
	Run:  runInvalidate,
}

// invState tracks whether some path reaching this point performed an
// acquire with no invalidate since (the cache may hold stale lines for
// whatever region that acquire published).
type invState struct {
	exposed     bool
	acquirePos  token.Pos // the atomic load or ReadFresh that opened the window
	acquireName string
}

func (s *invState) Clone() flowState { c := *s; return &c }

func (s *invState) MergeFrom(other flowState) {
	if o := other.(*invState); o.exposed {
		s.exposed = true
		s.acquirePos, s.acquireName = o.acquirePos, o.acquireName
	}
}

func (s *invState) ReplaceWith(other flowState) { *s = *other.(*invState) }

type invHooks struct {
	pass *Pass
	w    *flowWalker
}

func (h *invHooks) Call(st flowState, call *ast.CallExpr) {
	s := st.(*invState)
	switch cls, name := classifyCall(h.pass.TypesInfo, call); cls {
	case opAtomicLoad, opFreshRead:
		s.exposed = true
		s.acquirePos, s.acquireName = call.Pos(), name
	case opInvalidate, opFlush:
		s.exposed = false
	case opPlainRead:
		if s.exposed {
			h.pass.Reportf(call.Pos(),
				"plain %s decodes cached bytes after the %s at %s with no dominating InvalidateRange/FlushRange; a stale line from an earlier residency may be read",
				name, s.acquireName, h.pass.Fset.Position(s.acquirePos))
			s.exposed = false // one report per unprotected window
		}
	}
}

func (h *invHooks) Assign(st flowState, id *ast.Ident) {}
func (h *invHooks) Use(st flowState, id *ast.Ident)    {}

func (h *invHooks) FuncLit(st flowState, fl *ast.FuncLit) {
	h.w.walkBody(&invState{}, fl.Body)
}

func runInvalidate(pass *Pass) error {
	hooks := &invHooks{pass: pass}
	hooks.w = &flowWalker{hooks: hooks}
	forEachFuncBody(pass, func(decl *ast.FuncDecl) {
		hooks.w.walkBody(&invState{}, decl.Body)
	})
	return nil
}
