// Package poollifecycle enforces the recycled-handle contract from the
// high-k executor work: blob.Reader and blob.Writer handles are pooled
// (each core store recycles its one reader and one writer type through
// per-store pools, as cache.Store does its readers), so a leaked handle
// is not just a GC'd struct — a leaked reader never returns to the pool
// and a leaked writer holds the key's in-flight claim forever, turning
// every later Create/Replace of that key into ErrBusy. Use after Close is worse: once the same
// store's next Open or Create has taken the struct from the pool, the
// stale handle reads or commits another caller's object.
//
// Three rules, all intra-function:
//
//  1. A reader obtained from Store.Open must be Closed (directly or
//     deferred) unless the handle escapes (returned, stored, passed on).
//  2. A writer obtained from Store.Create/Replace must reach Commit or
//     Abort (or Close) unless it escapes.
//  3. A handle must not be used again in the same statement list after
//     the statement that Closed/Committed/Aborted it.
package poollifecycle

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the poollifecycle check.
var Analyzer = &analysis.Analyzer{
	Name: "poollifecycle",
	Doc: "flag pooled blob.Reader/Writer handles leaked without " +
		"Close/Commit/Abort or used after being released to the pool",
	Run: run,
}

// closers names the methods that release each kind of handle.
var closers = map[string]map[string]bool{
	"reader": {"Close": true},
	"writer": {"Commit": true, "Abort": true, "Close": true},
}

func run(pass *analysis.Pass) error {
	blobPkg := analysis.BlobPackage(pass.Pkg)
	if blobPkg == nil {
		return nil
	}
	reader := analysis.BlobInterface(blobPkg, "Reader")
	writer := analysis.BlobInterface(blobPkg, "Writer")
	if reader == nil && writer == nil {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			default:
				return true
			}
			if body != nil {
				checkBody(pass, body, reader, writer)
			}
			return true
		})
	}
	return nil
}

// handle is one tracked reader/writer variable within a function body.
type handle struct {
	obj      types.Object
	kind     string // "reader" or "writer"
	declPos  ast.Node
	method   string // the acquiring method name, for diagnostics
	released bool
	escapes  bool
}

// checkBody applies the three rules to one function body. Nested
// function literals are walked by the caller separately; uses inside
// them count as escapes for handles of the enclosing body.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt, reader, writer *types.Interface) {
	info := pass.TypesInfo
	handles := map[types.Object]*handle{}

	// Pass 1: find acquisitions — x, err := <expr>.Open/Create/Replace(...)
	// whose first result is a blob.Reader/Writer.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || len(as.Lhs) == 0 {
			return true
		}
		fn := analysis.Callee(info, call)
		if fn == nil {
			return true
		}
		var kind string
		switch fn.Name() {
		case "Open":
			kind = "reader"
		case "Create", "Replace":
			kind = "writer"
		default:
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return true
		}
		iface := reader
		if kind == "writer" {
			iface = writer
		}
		if iface == nil || !analysis.Implements(obj.Type(), iface) {
			return true
		}
		handles[obj] = &handle{obj: obj, kind: kind, declPos: as, method: fn.Name()}
		return true
	})
	if len(handles) == 0 {
		return
	}

	// Pass 2: classify every other use of each handle.
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			// A handle captured by a nested closure escapes this body's
			// tracking (the closure may close it on another path).
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if h := handles[info.Uses[id]]; h != nil {
						h.escapes = true
					}
				}
				return true
			})
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// x.Close() / x.Commit() / x.Abort() releases; x as an
			// argument escapes.
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					if h := handles[info.Uses[id]]; h != nil && closers[h.kind][sel.Sel.Name] {
						h.released = true
					}
				}
			}
			for _, arg := range n.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
					if h := handles[info.Uses[id]]; h != nil {
						h.escapes = true
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if id, ok := ast.Unparen(res).(*ast.Ident); ok {
					if h := handles[info.Uses[id]]; h != nil {
						h.escapes = true
					}
				}
			}
		case *ast.AssignStmt:
			// Handle on the right of a plain assignment (stored into a
			// field, another variable, a map) escapes.
			for _, rhs := range n.Rhs {
				if id, ok := ast.Unparen(rhs).(*ast.Ident); ok {
					if h := handles[info.Uses[id]]; h != nil {
						h.escapes = true
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				e := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if id, ok := ast.Unparen(e).(*ast.Ident); ok {
					if h := handles[info.Uses[id]]; h != nil {
						h.escapes = true
					}
				}
			}
		case *ast.SendStmt:
			if id, ok := ast.Unparen(n.Value).(*ast.Ident); ok {
				if h := handles[info.Uses[id]]; h != nil {
					h.escapes = true
				}
			}
		}
		return true
	})

	// Rule 1+2: neither released nor escaping.
	for _, h := range handles {
		if !h.released && !h.escapes {
			verb := "Closed"
			if h.kind == "writer" {
				verb = "Committed or Aborted"
			}
			pass.Reportf(h.declPos.Pos(),
				"pooled %s handle from %s is never %s: the handle leaks its pool slot%s",
				h.kind, h.method, verb,
				map[string]string{"reader": "", "writer": " and holds the key's in-flight claim"}[h.kind])
		}
	}

	// Rule 3: use after release, per statement list.
	checkUseAfterRelease(pass, body, handles)
}

// checkUseAfterRelease walks every statement list: once a statement
// releases handle x (non-deferred x.Close/Commit/Abort), any later
// statement in the same list that mentions x is flagged. Nested blocks
// inherit the released set by value, so an error-branch Abort does not
// poison the happy path after the branch.
func checkUseAfterRelease(pass *analysis.Pass, body *ast.BlockStmt, handles map[types.Object]*handle) {
	info := pass.TypesInfo
	releasedBy := func(stmt ast.Stmt) *handle {
		var found *handle
		ast.Inspect(stmt, func(n ast.Node) bool {
			if _, ok := n.(*ast.DeferStmt); ok {
				return false
			}
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok {
				return true
			}
			if h := handles[info.Uses[id]]; h != nil && closers[h.kind][sel.Sel.Name] {
				found = h
			}
			return true
		})
		return found
	}

	var walkList func(stmts []ast.Stmt, released map[*handle]bool)
	walkList = func(stmts []ast.Stmt, released map[*handle]bool) {
		for _, stmt := range stmts {
			// Reassigning a released handle variable is not a use of the
			// stale handle; un-track it.
			lhsRoots := map[*ast.Ident]bool{}
			ast.Inspect(stmt, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok {
					for _, lhs := range as.Lhs {
						if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
							lhsRoots[id] = true
							if h := handles[info.Uses[id]]; h != nil {
								released[h] = false
							}
						}
					}
				}
				return true
			})
			// A cleanup call (Close/Commit/Abort) on an already-released
			// handle is contract-safe — it fails typed with ErrClosed
			// without touching pooled state — and Abort after a failed
			// Commit is the documented recovery path. Only data
			// operations on a released handle are dangerous.
			cleanup := map[*ast.Ident]bool{}
			ast.Inspect(stmt, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
						if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
							if h := handles[info.Uses[id]]; h != nil && closers[h.kind][sel.Sel.Name] {
								cleanup[id] = true
							}
						}
					}
				}
				return true
			})
			// Flag uses of already-released handles anywhere in this
			// statement (skipping nested closures, which escaped).
			ast.Inspect(stmt, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				if id, ok := n.(*ast.Ident); ok && (lhsRoots[id] || cleanup[id]) {
					return true
				}
				switch n := n.(type) {
				case *ast.BlockStmt:
					// Nested lists get their own copy of the released
					// set below; stop here to avoid double-walking.
					inner := make(map[*handle]bool, len(released))
					for k, v := range released {
						inner[k] = v
					}
					walkList(n.List, inner)
					return false
				case *ast.Ident:
					if h := handles[info.Uses[n]]; h != nil && released[h] {
						pass.Reportf(n.Pos(),
							"use of pooled %s handle after %s released it to the pool: the struct may already belong to another goroutine's open",
							h.kind, releaseVerb(h.kind))
						// One report per handle per list.
						released[h] = false
					}
				}
				return true
			})
			if h := releasedBy(stmt); h != nil {
				released[h] = true
			}
		}
	}
	walkList(body.List, map[*handle]bool{})
}

func releaseVerb(kind string) string {
	if kind == "writer" {
		return "Commit/Abort"
	}
	return "Close"
}
