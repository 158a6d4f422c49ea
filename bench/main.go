// Command bench is this repository's benchmark: four named workloads,
// eleven end-to-end metrics and a per-layer ladder from extent to
// client. See README.md and ../BENCHMARK.json.
//
//	go -C bench run . --workload sim_fs_aged --seed 1 --seconds 26 --trace 0
//	go -C bench run . trace served_small_meta
//	go -C bench run . all --out out/set-A.json
//	go -C bench run . compare out/set-A.json out/set-B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "compare":
		err = compareMain(args[1:])
	case len(args) > 0 && args[0] == "all":
		err = allMain(args[1:])
	case len(args) > 0 && args[0] == "golden":
		// Prints what golden.json must hold for the current sources.
		var d map[string]string
		if d, err = figureDigests(); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(d)
		}
	case len(args) > 0 && args[0] == "trace":
		if len(args) < 2 {
			err = fmt.Errorf("usage: bench trace <workload> [flags]")
			break
		}
		err = runMain(append([]string{"--trace", "1", "--workload", args[1]}, args[2:]...))
	default:
		err = runMain(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runSeconds is how long a run measures unless told otherwise; it is
// BENCHMARK.json's run_seconds.
const runSeconds = 26

// runMain is the benchmark contract's entry point: one workload, one
// seed, one result line.
func runMain(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see README.md)")
	seed := fs.Int64("seed", 1, "seed of the generated op list")
	seconds := fs.Float64("seconds", runSeconds, "seconds to measure for: rounds of set-up and timed phase")
	trace := fs.Int("trace", 0, "1 = traced mode: per-layer metrics instead of end-to-end")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := pinToOneCPU(); err != nil {
		// The run still measures the same thing, only less steadily.
		fmt.Fprintln(os.Stderr, "bench: not pinned to one CPU:", err)
	}
	res, err := runWorkload(*name, *seed, *seconds, *trace == 1)
	if res != nil {
		printResult(res)
		for _, p := range res.Problems {
			fmt.Fprintln(os.Stderr, p)
		}
	}
	if err != nil {
		return err
	}
	fmt.Println(res.contractLine())
	return nil
}

// resultPath is where a run's full result is stored.
func resultPath(name string, traced bool) string {
	if traced {
		name += "-trace"
	}
	return fmt.Sprintf("%s/result-%s.json", outDir, name)
}

// runWorkload runs one workload and stores its full result in out/. A run
// that got as far as building its stack returns a result even when it
// failed: the result then says which ops or checks failed, is stored with
// correct=false, and comes back together with the error.
func runWorkload(name string, seed int64, seconds float64, traced bool) (*result, error) {
	w := findWorkload(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q; have %v", name, workloadNames())
	}
	if _, err := os.Stat("golden.json"); err != nil {
		return nil, fmt.Errorf("run from the bench directory (go -C bench run .): %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	res := &result{
		Workload: w.name, Why: w.why, Trace: traced, Seed: seed,
		Stack: w.stack.String(), Host: thisHost(), Metrics: map[string]metric{},
	}
	var err error
	switch {
	case traced:
		err = runTraced(w, seed, seconds, res)
	case w.sim != nil:
		err = runSim(w, seed, seconds, res)
	default:
		err = runServed(w, seed, seconds, res)
	}
	switch {
	case err == nil:
		checkGolden(res)
	case res.Failed == 0:
		// Not a failed op or check, which are on record already: the run
		// itself broke (no server, a server that did not exit 0).
		res.problem("RUN_FAILED", "%v", err)
	}
	res.finish()
	if werr := writeJSON(resultPath(w.name, traced), res); werr != nil {
		return res, werr
	}
	if err != nil {
		return res, fmt.Errorf("%s: %w", w.name, err)
	}
	if !res.Correct {
		return res, fmt.Errorf("%s: %d of %d attempted ops or checks failed", w.name, res.Failed, res.Attempted)
	}
	return res, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints every metric by name with its unit and clock, ahead
// of the contract's last line.
func printResult(r *result) {
	fmt.Printf("workload %s seed %d trace %v\n", r.Workload, r.Seed, r.Trace)
	fmt.Printf("  stack %s, ops %s %v, %d client(s), loop: %s\n", r.Stack, r.OpDigest, r.OpCounts, r.Clients, r.Loop)
	fmt.Printf("  host nproc %d (pinned to CPU %q) GOMAXPROCS %d %s commit %s\n", r.Host.NProc, r.Host.PinnedCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Commit)
	fmt.Printf("  %d round(s), %.2f s timed; attempted %d failed %d error_rate %g\n", r.Rounds, r.TimedS, r.Attempted, r.Failed, r.ErrorRate)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		extra := ""
		if m.Samples > 0 {
			extra = fmt.Sprintf(" p%g of %d samples/round", m.Percentile, m.Samples)
		}
		fmt.Printf("  %-34s %14.4f %-6s time_unit: %-7s spread %.2f%%%s\n", n, m.Value, m.Unit, m.TimeUnit, 100*m.Spread, extra)
	}
}
