// Package astq holds the small AST/type-query vocabulary shared by the
// phantomlint analyzers: stack-tracking traversal, call-target resolution,
// and method-receiver identification. Everything is stdlib go/ast +
// go/types; nothing here knows about any specific invariant.
package astq

import (
	"go/ast"
	"go/types"
)

// WalkStack traverses root in depth-first order, passing each node along
// with the stack of its ancestors (outermost first, root excluded from its
// own stack). Returning false skips the node's children.
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// CalleeFunc resolves the target of a call expression to the (possibly
// method) function object it invokes, or nil when the callee is not a
// statically-resolved function (a call of a function value, a conversion,
// a builtin).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsPkgFunc reports whether obj is the package-level function (or any
// object) named name in the package with import path pkgPath.
func IsPkgFunc(obj types.Object, pkgPath, name string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// MethodOn reports whether fn is a method whose receiver's named type is
// typeName declared in pkgPath (pointer receivers match too).
func MethodOn(fn *types.Func, pkgPath, typeName string) bool {
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return NamedTypeIs(sig.Recv().Type(), pkgPath, typeName)
}

// NamedTypeIs reports whether t (possibly behind pointers or aliases) is
// the named type pkgPath.typeName.
func NamedTypeIs(t types.Type, pkgPath, typeName string) bool {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
			continue
		case *types.Alias:
			t = types.Unalias(tt)
			continue
		case *types.Named:
			obj := tt.Obj()
			return obj != nil && obj.Pkg() != nil &&
				obj.Pkg().Path() == pkgPath && obj.Name() == typeName
		default:
			return false
		}
	}
}

// EnclosingFunc returns the body of the innermost function declaration or
// literal in stack, or nil when the node is not inside a function.
func EnclosingFunc(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			return f.Body
		case *ast.FuncLit:
			return f.Body
		}
	}
	return nil
}
