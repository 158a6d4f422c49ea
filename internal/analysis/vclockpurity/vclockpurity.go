// Package vclockpurity enforces the simulation's first invariant: cost
// and time inside internal/ packages flow through the shared virtual
// clock (internal/vclock), never the wall clock. A single time.Now or
// time.Sleep on a disk-cost path silently decouples reported
// throughput from the disk model and corrupts the §6 fragmentation
// curves, because virtual seconds stop covering the work performed.
//
// Two rules:
//
//  1. Calls to wall-clock time functions (time.Now, time.Since,
//     time.Sleep, time.After, time.Tick, time.NewTimer, time.NewTicker,
//     time.AfterFunc, time.Until) are flagged in every internal/
//     package. Genuine wall-clock sites — report timestamps, the
//     group-commit leader's max-delay ceiling — carry a
//     //fragvet:ignore vclockpurity <reason>.
//
//  2. Functions named charge* are the convention for accounting a disk
//     or memory cost; one that neither advances a vclock.Clock nor
//     delegates to another charge* helper is a cost path that returns
//     without charging, and is flagged.
package vclockpurity

import (
	"go/ast"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the vclockpurity check.
var Analyzer = &analysis.Analyzer{
	Name: "vclockpurity",
	Doc: "flag wall-clock time use in simulation packages and charge* " +
		"helpers that never advance the virtual clock",
	Run: run,
}

// wallFuncs are the time package functions that read or wait on the
// wall clock. time.Duration arithmetic and time.Time formatting are
// fine; acquiring wall time is not.
var wallFuncs = map[string]bool{
	"Now": true, "Since": true, "Sleep": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true, "Until": true,
}

func run(pass *analysis.Pass) error {
	if !analysis.InternalSimPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkWallCall(pass, n)
			case *ast.FuncDecl:
				checkChargeFunc(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkWallCall flags direct calls to the wall-clock time functions.
func checkWallCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return
	}
	if !wallFuncs[fn.Name()] {
		return
	}
	pass.Reportf(call.Pos(),
		"wall-clock time.%s in simulation package %s: charge the shared vclock.Clock instead",
		fn.Name(), pass.Pkg.Name())
}

// checkChargeFunc flags charge*-named functions that never advance a
// virtual clock and never delegate to another charge* helper.
func checkChargeFunc(pass *analysis.Pass, decl *ast.FuncDecl) {
	name := decl.Name.Name
	if decl.Body == nil || !strings.HasPrefix(strings.ToLower(name), "charge") {
		return
	}
	charges := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || charges {
			return !charges
		}
		if fn := analysis.Callee(pass.TypesInfo, call); fn != nil {
			switch {
			case fn.Name() == "Advance" || fn.Name() == "AdvanceSeconds":
				charges = true
			case fn != pass.TypesInfo.Defs[decl.Name] &&
				strings.HasPrefix(strings.ToLower(fn.Name()), "charge"):
				charges = true
			}
		}
		return !charges
	})
	if !charges {
		pass.Reportf(decl.Name.Pos(),
			"charge path %s returns without advancing a vclock.Clock (no Advance/AdvanceSeconds or charge* delegation)",
			name)
	}
}
