// Command fragvet is the repo's custom static-analysis suite: a
// multichecker over the simulation's own invariants (virtual-clock
// purity, sentinel-error discipline, pooled-handle lifecycles, and
// context threading).
//
// It runs one way, driven by cmd/go:
//
//	go vet -vettool=$(command -v fragvet) ./...
//
// Run any other way it prints that usage line and exits 2. Findings
// print as file:line:col: message (analyzer) and the exit status is 2,
// matching go vet. Suppress a finding with an inline
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
	if !analysis.IsVetInvocation(args) {
		fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(command -v fragvet) ./...")
		os.Exit(2)
	}
	os.Exit(analysis.Vet(args, analyzers()))
}
