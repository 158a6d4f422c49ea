// Command fragvet is the repo's custom static-analysis suite: a
// multichecker over the simulation's own invariants (virtual-clock
// purity, sentinel-error discipline, pooled-handle lifecycles, and
// context threading).
//
// It runs two ways:
//
//	fragvet [packages]               standalone; defaults to ./...
//	go vet -vettool=$(which fragvet) ./...   driven by cmd/go
//
// Findings print as file:line:col: message (analyzer) and the exit
// status is 2, matching go vet. Suppress a finding with an inline
// directive on (or directly above) the flagged line:
//
//	//fragvet:ignore <analyzer> <reason>
//
// The reason is mandatory, and unused ignores are themselves flagged so
// suppressions cannot go stale.
package main

import (
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/poollifecycle"
	"repro/internal/analysis/sentinelerr"
	"repro/internal/analysis/vclockpurity"
)

func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		vclockpurity.Analyzer,
		sentinelerr.Analyzer,
		poollifecycle.Analyzer,
		ctxflow.Analyzer,
	}
}

func main() {
	args := os.Args[1:]
	if analysis.IsVetInvocation(args) {
		os.Exit(analysis.Vet(args, analyzers()))
	}
	os.Exit(standalone(args))
}

// standalone loads the requested packages itself (via `go list
// -export`) and runs the full suite, for use outside go vet.
func standalone(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fragvet: %v\n", err)
		return 1
	}
	pkgs, err := analysis.Load(wd, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fragvet: %v\n", err)
		return 1
	}
	code := 0
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, analyzers())
		if err != nil {
			fmt.Fprintf(os.Stderr, "fragvet: %v\n", err)
			return 1
		}
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
			code = 2
		}
	}
	return code
}
