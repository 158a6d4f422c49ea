package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// BlobPackage locates the blob API package (repro/internal/blob, or any
// import path ending in "/blob" — fixture packages use short paths)
// from the analyzed package: the package itself when it IS blob,
// otherwise a breadth-first search of its import graph. Returns nil
// when the package cannot see the blob API, in which case the
// blob-boundary analyzers have nothing to check.
func BlobPackage(pkg *types.Package) *types.Package {
	isBlob := func(p *types.Package) bool {
		return p.Path() == "blob" || strings.HasSuffix(p.Path(), "/blob")
	}
	if isBlob(pkg) {
		return pkg
	}
	seen := map[*types.Package]bool{pkg: true}
	queue := pkg.Imports()
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if seen[p] {
			continue
		}
		seen[p] = true
		if isBlob(p) {
			return p
		}
		queue = append(queue, p.Imports()...)
	}
	return nil
}

// BlobInterface returns the named interface (Store, Reader, Writer)
// from the blob package, or nil.
func BlobInterface(blobPkg *types.Package, name string) *types.Interface {
	if blobPkg == nil {
		return nil
	}
	obj := blobPkg.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// Implements reports whether t (or *t) satisfies iface.
func Implements(t types.Type, iface *types.Interface) bool {
	if t == nil || iface == nil {
		return false
	}
	if types.Implements(t, iface) {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}

// Callee resolves the *types.Func a call expression invokes (methods
// and plain functions), or nil for indirect calls through function
// values, conversions, and builtins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// InternalSimPackage reports whether path names a package inside the
// simulation tree — the scope where wall-clock use is an invariant
// violation. cmd/, examples/, and external code are out of scope.
func InternalSimPackage(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}
