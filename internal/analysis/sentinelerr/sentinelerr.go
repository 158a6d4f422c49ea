// Package sentinelerr enforces the blob.Store error contract: every
// failure crossing the Store/Reader/Writer boundary wraps one of the
// sentinels in blob/errors.go, so callers dispatch with errors.Is and
// never by message text. An errors.New or a fmt.Errorf without %w
// returned from a boundary method mints an unmatchable error — the
// conformance suite, the workload executor's ErrNoSpaceLeft tolerance,
// and the compactor's ErrBusy/ErrNotFound handling all silently
// misclassify it.
//
// Scope: methods of types implementing blob.Store, blob.Reader, or
// blob.Writer whose name belongs to the implemented interface, plus
// any function whose results include one of those interface types
// (constructors and forwarders like core's store.newWriter). Within
// scope a return statement whose error operand is a direct
// errors.New(...) or a fmt.Errorf(...) with no %w verb — or a local
// variable assigned exactly once from such a call — is flagged.
package sentinelerr

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the sentinelerr check.
var Analyzer = &analysis.Analyzer{
	Name: "sentinelerr",
	Doc: "flag unwrapped errors.New/fmt.Errorf-without-%w escaping the " +
		"blob.Store boundary instead of wrapping a blob.Err* sentinel",
	Run: run,
}

func run(pass *analysis.Pass) error {
	blobPkg := analysis.BlobPackage(pass.Pkg)
	if blobPkg == nil {
		return nil
	}
	ifaces := map[string]*types.Interface{}
	for _, name := range []string{"Store", "Reader", "Writer"} {
		if iface := analysis.BlobInterface(blobPkg, name); iface != nil {
			ifaces[name] = iface
		}
	}
	if len(ifaces) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if inScope(pass, fd, ifaces) {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

// inScope reports whether fd is a blob-boundary function: an interface
// method on an implementing type, or a function returning one of the
// boundary interfaces.
func inScope(pass *analysis.Pass, fd *ast.FuncDecl, ifaces map[string]*types.Interface) bool {
	fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		for _, iface := range ifaces {
			if !analysis.Implements(recv.Type(), iface) {
				continue
			}
			for m := range iface.NumMethods() {
				if iface.Method(m).Name() == fn.Name() {
					return true
				}
			}
		}
		// Fall through: a method may still be a constructor/forwarder
		// returning a boundary interface.
	}
	results := sig.Results()
	for i := range results.Len() {
		rt := results.At(i).Type()
		for _, iface := range ifaces {
			if tIface, ok := rt.Underlying().(*types.Interface); ok && types.Identical(tIface, iface) {
				return true
			}
		}
	}
	return false
}

// checkFunc flags unwrapped error constructions returned by fd.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	// singleAssign maps a local error variable to the sole unwrapped
	// construction assigned to it; variables assigned more than once
	// (or from clean expressions) drop out.
	singleAssign := map[types.Object]token.Pos{}
	multi := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" || i >= len(as.Rhs) {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj == nil || !isErrorType(obj.Type()) {
				continue
			}
			if _, seen := singleAssign[obj]; seen || multi[obj] {
				multi[obj] = true
				delete(singleAssign, obj)
				continue
			}
			if pos, bad := unwrappedConstruction(pass, as.Rhs[i]); bad {
				singleAssign[obj] = pos
			} else {
				multi[obj] = true
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			tv, ok := pass.TypesInfo.Types[res]
			if !ok || tv.Type == nil || !isErrorType(tv.Type) {
				continue
			}
			if pos, bad := unwrappedConstruction(pass, res); bad {
				report(pass, pos)
				continue
			}
			if id, ok := ast.Unparen(res).(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && !multi[obj] {
					if pos, tracked := singleAssign[obj]; tracked {
						report(pass, pos)
					}
				}
			}
		}
		return true
	})
}

func report(pass *analysis.Pass, pos token.Pos) {
	pass.Reportf(pos,
		"unwrapped error escapes the blob.Store boundary: wrap a blob.Err* sentinel with %%w so errors.Is holds end-to-end")
}

// unwrappedConstruction reports whether expr is errors.New(...) or
// fmt.Errorf(...) without a %w verb.
func unwrappedConstruction(pass *analysis.Pass, expr ast.Expr) (token.Pos, bool) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return token.NoPos, false
	}
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return token.NoPos, false
	}
	switch {
	case fn.Pkg().Path() == "errors" && fn.Name() == "New":
		return call.Pos(), true
	case fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf":
		if len(call.Args) == 0 {
			return token.NoPos, false
		}
		lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			// Non-literal format: cannot prove a missing %w; stay quiet.
			return token.NoPos, false
		}
		format, err := strconv.Unquote(lit.Value)
		if err != nil || strings.Contains(format, "%w") {
			return token.NoPos, false
		}
		return call.Pos(), true
	}
	return token.NoPos, false
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error" && types.IsInterface(t)
}
