// Package atomicfield detects struct fields that are accessed through
// sync/atomic in one place and with plain loads or stores elsewhere in
// the same package. A field like stats.NodeStats.Faults is all-atomic
// by convention only — the type system does not stop a new counter
// consumer from writing `s.Faults++`, which is a data race against the
// engine's atomic.AddInt64 and, under the race detector or a weakly
// ordered machine, a silently wrong count.
//
// Accesses whose base is a struct *copy* held in a function-local
// value variable are exempt: reading a snapshot plainly is the whole
// point of taking one. Everything else — pointer receivers, package
// state, shared arrays — must use sync/atomic for every access, or
// carry an explicit //hyperion:allow(atomicfield) justification (e.g.
// single-goroutine initialization before publication).
package atomicfield

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the atomicfield checker.
var Analyzer = &analysis.Analyzer{
	Name: "atomicfield",
	Doc:  "detect struct fields accessed both via sync/atomic and with plain loads/stores in the same package",
	Run:  run,
}

// atomicFuncs are the sync/atomic functions whose first argument is a
// pointer to the accessed word.
var atomicFuncs = map[string]bool{
	"AddInt32": true, "AddInt64": true, "AddUint32": true, "AddUint64": true, "AddUintptr": true,
	"LoadInt32": true, "LoadInt64": true, "LoadUint32": true, "LoadUint64": true, "LoadUintptr": true, "LoadPointer": true,
	"StoreInt32": true, "StoreInt64": true, "StoreUint32": true, "StoreUint64": true, "StoreUintptr": true, "StorePointer": true,
	"SwapInt32": true, "SwapInt64": true, "SwapUint32": true, "SwapUint64": true, "SwapUintptr": true, "SwapPointer": true,
	"CompareAndSwapInt32": true, "CompareAndSwapInt64": true,
	"CompareAndSwapUint32": true, "CompareAndSwapUint64": true,
	"CompareAndSwapUintptr": true, "CompareAndSwapPointer": true,
}

func run(pass *analysis.Pass) (any, error) {
	atomicSites := map[*types.Var]token.Pos{} // field -> first atomic access
	atomicArgs := map[*ast.SelectorExpr]bool{}

	// Pass 1: find fields accessed through sync/atomic.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || !atomicFuncs[fn.Name()] {
				return true
			}
			un, ok := call.Args[0].(*ast.UnaryExpr)
			if !ok || un.Op != token.AND {
				return true
			}
			fsel, ok := un.X.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if v := fieldOf(pass, fsel); v != nil {
				if _, seen := atomicSites[v]; !seen {
					atomicSites[v] = fsel.Pos()
				}
				atomicArgs[fsel] = true
			}
			return true
		})
	}
	if len(atomicSites) == 0 {
		return nil, nil
	}

	// Pass 2: find plain accesses to those fields.
	for _, file := range pass.Files {
		f := file
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || atomicArgs[sel] {
				return true
			}
			v := fieldOf(pass, sel)
			if v == nil {
				return true
			}
			first, ok := atomicSites[v]
			if !ok {
				return true
			}
			if isValueCopyAccess(pass, f, sel) {
				return true
			}
			pass.Reportf(sel.Pos(),
				"plain access to field %s, which is accessed atomically at %s: mixed atomic/plain access is a data race (use sync/atomic here too)",
				v.Name(), pass.Fset.Position(first))
			return true
		})
	}
	return nil, nil
}

// fieldOf resolves sel to a struct-field variable, or nil.
func fieldOf(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Var {
	v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v
}

// isValueCopyAccess reports whether the selector's base chain is
// rooted at a non-pointer (value) variable declared in the enclosing
// function, with no pointer dereference along the chain — i.e. the
// access touches a private copy of the struct, not shared memory.
func isValueCopyAccess(pass *analysis.Pass, file *ast.File, sel *ast.SelectorExpr) bool {
	fn := analysis.FuncFor(file, sel.Pos())
	if fn == nil {
		return false
	}
	e := sel.X
	for {
		if tv, ok := pass.TypesInfo.Types[e]; ok {
			if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
				return false // chain passes through shared memory
			}
		}
		switch x := e.(type) {
		case *ast.Ident:
			v, ok := pass.TypesInfo.Uses[x].(*types.Var)
			if !ok {
				return false
			}
			if v.IsField() {
				return false
			}
			// Declared inside the enclosing function (params included)?
			return v.Pos() >= fn.Pos() && v.Pos() < fn.End()
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}
