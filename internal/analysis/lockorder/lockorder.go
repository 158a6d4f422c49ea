// Package lockorder enforces the stripe/force ordering invariant: a
// blob.KeyLocks stripe must never be held across a call that can reach
// the group-commit force. The committer's Do blocks the caller until
// its batch's one group force is issued, and the caller may lead the
// batch, running other writers' apply closures on its own goroutine. An
// apply closure that took a stripe the caller holds would deadlock as
// soon as a batch paired two keys on one stripe — a 1-in-stripes chance
// per batch that soak runs hit and unit tests do not. No apply closure
// in the tree takes a stripe today (the core stores have none); the
// check keeps a future one from meeting a caller that holds it.
//
// The analyzer tracks, per statement list, the region between a
// KeyLocks Lock/RLock and its Unlock/RUnlock (a deferred Unlock holds
// to function end). Inside a held region it flags calls that force:
// GroupCommitter.Do, blob.Writer.Commit (Commit rides the
// pipeline), and any same-package function that transitively makes
// such a call (one intra-package fixpoint, so helpers don't hide the
// force).
package lockorder

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the lockorder check.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "flag calls that can reach the group-commit force while a " +
		"KeyLocks stripe is held",
	Run: run,
}

func run(pass *analysis.Pass) error {
	blobPkg := analysis.BlobPackage(pass.Pkg)
	if blobPkg == nil {
		return nil
	}
	writer := analysis.BlobInterface(blobPkg, "Writer")

	// forces reports whether call directly reaches the pipeline.
	forces := func(call *ast.CallExpr) bool {
		if analysis.IsMethodOn(pass.TypesInfo, call, blobPkg, "GroupCommitter", "Do") {
			return true
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Name() != "Commit" {
			return false
		}
		recv := analysis.ReceiverType(pass.TypesInfo, call)
		return recv != nil && writer != nil && analysis.Implements(recv, writer)
	}

	// Intra-package fixpoint: funcs whose body contains a forcing call,
	// directly or through same-package callees.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	mayForce := map[*types.Func]bool{}
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			if mayForce[fn] {
				continue
			}
			found := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || found {
					return !found
				}
				if forces(call) {
					found = true
					return false
				}
				if callee := analysis.Callee(pass.TypesInfo, call); callee != nil && mayForce[callee] {
					found = true
					return false
				}
				return true
			})
			if found {
				mayForce[fn] = true
				changed = true
			}
		}
	}

	// lockMethod classifies a statement's KeyLocks call: +1 acquire,
	// -1 release, 0 neither.
	lockDelta := func(call *ast.CallExpr) int {
		for _, m := range []string{"Lock", "RLock"} {
			if analysis.IsMethodOn(pass.TypesInfo, call, blobPkg, "KeyLocks", m) {
				return 1
			}
		}
		for _, m := range []string{"Unlock", "RUnlock"} {
			if analysis.IsMethodOn(pass.TypesInfo, call, blobPkg, "KeyLocks", m) {
				return -1
			}
		}
		return 0
	}

	for _, fd := range decls {
		checkFunc(pass, fd, lockDelta, forces, mayForce)
	}
	return nil
}

// checkFunc walks fd's statement lists tracking how many stripe locks
// are held, flagging forcing calls inside held regions.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl,
	lockDelta func(*ast.CallExpr) int,
	forces func(*ast.CallExpr) bool,
	mayForce map[*types.Func]bool) {

	flagCalls := func(stmt ast.Stmt) {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // closures run later, outside the region
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if forces(call) {
				pass.Reportf(call.Pos(),
					"group-commit force reached while a KeyLocks stripe is held: the batch's apply closures re-acquire stripes and deadlock")
				return true
			}
			if callee := analysis.Callee(pass.TypesInfo, call); callee != nil && mayForce[callee] {
				pass.Reportf(call.Pos(),
					"call to %s while a KeyLocks stripe is held: it can reach the group-commit force, whose apply closures re-acquire stripes",
					callee.Name())
			}
			return true
		})
	}

	// stmtDelta sums the lock acquires/releases of the non-deferred
	// calls in stmt; deferHolds reports a deferred Unlock/Lock.
	stmtDelta := func(stmt ast.Stmt) (delta int, deferAcquire bool) {
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				// A deferred Unlock releases at return; the stripe stays
				// held for the rest of the function. A deferred Lock is
				// nonsense; ignore.
				return false
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				delta += lockDelta(n)
			}
			return true
		})
		// Detect `defer kl.Unlock(key)` directly.
		if ds, ok := stmt.(*ast.DeferStmt); ok {
			if lockDelta(ds.Call) == -1 {
				deferAcquire = true
			}
		}
		return delta, deferAcquire
	}

	var walkList func(stmts []ast.Stmt, held int)
	walkList = func(stmts []ast.Stmt, held int) {
		deferredHold := false
		for _, stmt := range stmts {
			if held > 0 || deferredHold {
				flagCalls(stmt)
			}
			delta, deferRelease := stmtDelta(stmt)
			held += delta
			if held < 0 {
				held = 0
			}
			if deferRelease {
				// Lock was (or will be) paired with a deferred Unlock:
				// the stripe is held from here to function end.
				deferredHold = true
			}
			// Recurse into nested statement lists with the current
			// held state.
			effective := held
			if deferredHold {
				effective++
			}
			for _, inner := range nestedLists(stmt) {
				walkList(inner, effective)
			}
		}
	}
	walkList(fd.Body.List, 0)
}

// nestedLists returns the statement lists directly nested in stmt.
func nestedLists(stmt ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		out = append(out, s.List)
	case *ast.IfStmt:
		out = append(out, s.Body.List)
		if s.Else != nil {
			out = append(out, nestedLists(s.Else)...)
		}
	case *ast.ForStmt:
		out = append(out, s.Body.List)
	case *ast.RangeStmt:
		out = append(out, s.Body.List)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.LabeledStmt:
		out = append(out, nestedLists(s.Stmt)...)
	}
	return out
}
