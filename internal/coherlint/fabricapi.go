package coherlint

import (
	"go/ast"
	"go/types"
	"strings"
)

// fabricPkgPath is the package whose Node methods define the sync and
// data-movement vocabulary the analyzers reason about.
const fabricPkgPath = "flacos/internal/fabric"

// opClass partitions fabric.Node's API by coherence role.
type opClass int

const (
	opNone       opClass = iota
	opPlainRead          // Load64, Read: through the private cache
	opPlainWrite         // Store64, Write: dirty lines, not yet home
	opWriteBack          // WriteBackRange/WriteBackAll: dirty lines -> home
	opInvalidate         // InvalidateRange/InvalidateAll: drop cached lines
	opFlush              // FlushRange/FlushAll: write back then invalidate
	opAtomicLoad         // AtomicLoad64: acquire of a publication
	opFreshRead          // ReadFresh: a read past the cache that carries its own invalidate; an acquire of any publication word in its range
	opFreshWrite         // WriteFresh: a write that carries its own write-back and invalidate; nothing of it stays cached
	opAtomicPub          // AtomicStore64/CAS64/Swap64: publication stores
	opAtomicAdd          // Add64: fetch-and-add (counter, not a publication)
	opFence              // Fence
)

var nodeMethodClass = map[string]opClass{
	"Load64": opPlainRead, "Read": opPlainRead,
	"Store64": opPlainWrite, "Write": opPlainWrite,
	"WriteBackRange": opWriteBack, "WriteBackAll": opWriteBack,
	"InvalidateRange": opInvalidate, "InvalidateAll": opInvalidate,
	"FlushRange": opFlush, "FlushAll": opFlush,
	"AtomicLoad64":  opAtomicLoad,
	"ReadFresh":     opFreshRead,
	"WriteFresh":    opFreshWrite,
	"AtomicStore64": opAtomicPub, "CAS64": opAtomicPub, "Swap64": opAtomicPub,
	"Add64": opAtomicAdd,
	"Fence": opFence,
}

// atomicNames lists the method names //flac:published-by may reference.
var atomicNames = map[string]bool{
	"AtomicStore64": true, "CAS64": true, "Swap64": true, "Add64": true,
}

// namedType unwraps t to its *types.Named core (through pointers and
// aliases), or nil.
func namedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isFabricType reports whether t (possibly behind pointers) is the named
// fabric type with the given name.
func isFabricType(t types.Type, name string) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == fabricPkgPath
}

// isGPtr reports whether t is fabric.GPtr.
func isGPtr(t types.Type) bool { return isFabricType(t, "GPtr") }

// classifyCall maps a call expression to its fabric coherence role, with
// the method name for diagnostics. Non-fabric calls return opNone.
func classifyCall(info *types.Info, call *ast.CallExpr) (opClass, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return opNone, ""
	}
	cls, ok := nodeMethodClass[sel.Sel.Name]
	if !ok {
		return opNone, ""
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return opNone, ""
	}
	if !isFabricType(s.Recv(), "Node") {
		return opNone, ""
	}
	return cls, sel.Sel.Name
}

// isRetireCall recognizes quiescence grace-period retirement: a method
// named RetireTo on a type from a quiescence package, taking the freer
// and the offset it will free.
func isRetireCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "RetireTo" || len(call.Args) != 2 {
		return false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return false
	}
	n := namedType(s.Recv())
	return n != nil && n.Obj().Pkg() != nil &&
		strings.HasSuffix(n.Obj().Pkg().Path(), "/quiescence")
}

// isFreeCall recognizes an immediate arena release: a method named Free
// whose single argument is a fabric.GPtr (alloc.Arena.Free and the
// quiescence Allocator interface both match). The offset it is given is
// dead the moment the call returns.
func isFreeCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Free" || len(call.Args) != 1 {
		return false
	}
	if s := info.Selections[sel]; s == nil || s.Kind() != types.MethodVal {
		return false
	}
	tv, ok := info.Types[call.Args[0]]
	return ok && isGPtr(tv.Type)
}
