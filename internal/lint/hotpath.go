package lint

import (
	"go/ast"
	"go/constant"
	"go/types"

	"bufferqoe/internal/lint/analysis"
)

// Hotpath enforces the zero-allocation discipline on functions
// annotated //qoe:hotpath: the event dispatch, packet forwarding, TCP
// segment, 802.11 transmit and telemetry record paths that the
// per-cell allocation budgets (BENCH_8.json, CI alloc gates) depend
// on. The benchmarks catch a regression after the fact; this analyzer
// names the exact line that would cause it.
var Hotpath = &analysis.Analyzer{
	Name: "hotpath",
	Doc: `steady-state allocation sources on //qoe:hotpath functions

Inside a function annotated //qoe:hotpath, flags:

  - function literals (each closure allocates; hoist to a method,
    a sim.Handler on the component, or package function),
  - any fmt.* call (formatting allocates and reflects),
  - implicit conversion of a non-pointer-shaped value to an interface
    (boxing allocates; pointers, funcs, channels and maps are exempt,
    as are untyped nil and constants),
  - append to a slice declared in the same function with zero capacity
    (var s []T, s := []T{}, make([]T, 0)); preallocate with a capacity
    or reuse a scratch buffer.

Closure bodies are not descended into: the closure itself is already
the finding.`,
	Run: runHotpath,
}

func runHotpath(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasDirective("hotpath", fn.Doc) {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
	return nil, nil
}

func checkHotFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	results := fn.Type.Results
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "function literal allocates a closure on //qoe:hotpath function %s; hoist it to a method, pooled handler, or package function", fn.Name.Name)
			return false // the closure is the finding; don't re-flag its body
		case *ast.CallExpr:
			return checkHotCall(pass, fn, n)
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
						continue
					}
					checkBoxing(pass, fn, pass.TypesInfo.TypeOf(n.Lhs[i]), n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				t := pass.TypesInfo.TypeOf(n.Type)
				for _, v := range n.Values {
					checkBoxing(pass, fn, t, v)
				}
			}
		case *ast.ReturnStmt:
			if results == nil {
				return true
			}
			rts := flattenFields(pass, results)
			if len(n.Results) == len(rts) {
				for i, r := range n.Results {
					checkBoxing(pass, fn, rts[i], r)
				}
			}
		}
		return true
	})
}

// checkHotCall handles calls: fmt bans, append capacity, boxing of
// arguments against parameter types, and conversion boxing. Returns
// whether the walker should descend into the call's children.
func checkHotCall(pass *analysis.Pass, fn *ast.FuncDecl, call *ast.CallExpr) bool {
	// Builtin append: zero-capacity growth check.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" && len(call.Args) > 0 {
				checkAppend(pass, fn, call)
			}
			return true
		}
	}
	// Conversion T(v): boxing when T is an interface.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			checkBoxing(pass, fn, tv.Type, call.Args[0])
		}
		return true
	}
	callee, _ := pass.TypesInfo.Uses[calleeIdent(call)].(*types.Func)
	if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s allocates and reflects on //qoe:hotpath function %s; move formatting off the hot path", callee.Name(), fn.Name.Name)
		return false // don't additionally flag each boxed vararg
	}
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return true
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic() && !call.Ellipsis.IsValid():
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue // f(xs...): the slice is passed through, no per-element boxing
		}
		checkBoxing(pass, fn, pt, arg)
	}
	return true
}

// checkBoxing reports expr when storing it into target requires
// boxing a non-pointer-shaped value into an interface.
func checkBoxing(pass *analysis.Pass, fn *ast.FuncDecl, target types.Type, expr ast.Expr) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.IsNil() || tv.Value != nil || tv.Type == nil {
		return // nil and constants are materialized statically
	}
	if types.IsInterface(tv.Type) || pointerShaped(tv.Type) {
		return
	}
	pass.Reportf(expr.Pos(), "%s value boxed into %s allocates on //qoe:hotpath function %s; pass a pointer-shaped value or restructure the call", tv.Type, target, fn.Name.Name)
}

// pointerShaped reports whether converting t to an interface stores
// the value directly in the interface word (no allocation).
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// checkAppend flags append on a slice variable declared in the same
// function with provably zero capacity.
func checkAppend(pass *analysis.Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return
	}
	if declaredZeroCap(pass, fn, obj) {
		pass.Reportf(call.Pos(), "append grows %s from zero capacity on //qoe:hotpath function %s; preallocate with make(..., n) or reuse a scratch buffer", id.Name, fn.Name.Name)
	}
}

// declaredZeroCap reports whether obj is declared inside fn with a
// provably zero-capacity initializer (var s []T; s := []T{};
// s := []T(nil); make([]T, 0)). Parameters, fields and captures are
// assumed preallocated by their owner.
func declaredZeroCap(pass *analysis.Pass, fn *ast.FuncDecl, obj *types.Var) bool {
	zero := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if pass.TypesInfo.Defs[name] != obj {
					continue
				}
				if len(n.Values) == 0 {
					zero = true // var s []T
				} else if i < len(n.Values) {
					zero = zeroCapExpr(pass, n.Values[i])
				}
			}
		case *ast.AssignStmt:
			if n.Tok.String() != ":=" || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && pass.TypesInfo.Defs[id] == obj {
					zero = zeroCapExpr(pass, n.Rhs[i])
				}
			}
		}
		return true
	})
	return zero
}

// zeroCapExpr reports whether the initializer yields a slice with
// provably zero capacity.
func zeroCapExpr(pass *analysis.Pass, expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e.Name == "nil"
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
				if len(e.Args) >= 3 {
					return false // explicit capacity
				}
				if len(e.Args) == 2 {
					tv := pass.TypesInfo.Types[e.Args[1]]
					return tv.Value != nil && constant.Sign(tv.Value) == 0
				}
			}
		}
		// []T(nil) conversion
		if tv, ok := pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return zeroCapExpr(pass, e.Args[0])
		}
	}
	return false
}

// flattenFields expands a result list into one type per value
// (grouped fields like "(a, b int)" expand to two entries).
func flattenFields(pass *analysis.Pass, fl *ast.FieldList) []types.Type {
	var out []types.Type
	for _, f := range fl.List {
		t := pass.TypesInfo.TypeOf(f.Type)
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			out = append(out, t)
		}
	}
	return out
}

// calleeIdent returns the identifier naming the called function, or
// nil for indirect calls.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f
	case *ast.SelectorExpr:
		return f.Sel
	}
	return nil
}
