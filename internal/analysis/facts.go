// The fact store: how analyzers exchange knowledge across packages.
//
// A Fact is a statement an analyzer makes about a package-level object
// (a function summary, say) or about a whole package ("this package
// transitively links net"). All packages of a run share one in-memory
// store, and facts flow through it as the graph runner works down the
// dependency order. Facts are keyed by (import path, object key, concrete
// fact type) — never by go/types object identity: a dependency is
// type-checked from source when it is analyzed but read from export data
// when its importers are, so the two sides see different objects for the
// same declaration.
package analysis

import (
	"go/types"
	"reflect"
)

// Fact is implemented by every fact type, a pointer to a struct. The
// marker method keeps fact types explicit.
type Fact interface{ AFact() }

// factKey addresses one fact: its holder — a package ("" object key) or
// a package-level object within it — and its concrete type.
type factKey struct {
	pkg string // import path
	obj string // "" = package fact; "Name" or "Recv.Method"
	typ reflect.Type
}

// factStore holds the facts of one analysis run.
type factStore map[factKey]Fact

func (s factStore) export(pkg, obj string, f Fact) {
	s[factKey{pkg: pkg, obj: obj, typ: reflect.TypeOf(f)}] = f
}

// lookup copies the stored fact of ptr's concrete type into ptr.
func (s factStore) lookup(pkg, obj string, ptr Fact) bool {
	got, ok := s[factKey{pkg: pkg, obj: obj, typ: reflect.TypeOf(ptr)}]
	if !ok {
		return false
	}
	reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(got).Elem())
	return true
}

// ObjectKey returns the key for a package-level object: "Name" for
// functions, vars, consts and types; "Recv.Method" for methods on named
// types. Local objects have no stable key and return ok=false — facts
// cannot be attached to them.
func ObjectKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			named := namedOf(sig.Recv().Type())
			if named == nil {
				return "", false
			}
			return named.Obj().Name() + "." + fn.Name(), true
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	return obj.Name(), true
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}
