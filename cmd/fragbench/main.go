// Command fragbench runs the paper-reproduction experiments and prints
// each table/figure as text (and optionally CSV).
//
// Usage:
//
//	fragbench -list
//	fragbench [flags] <experiment-id>... | all
//
// Examples:
//
//	fragbench fig2                 # Figure 2 at default (bench) scale
//	fragbench -volume 40G fig6     # Figure 6 with 40G/400G volumes
//	fragbench shard                # shard-count sweep at fixed total volume
//	fragbench -shards 32 shard     # ... sweeping 1..32 shards
//	fragbench interleave           # k concurrent writer streams, group commit on
//	fragbench -streams 1,4,16 interleave  # ... with an explicit k sweep
//	fragbench tracereplay          # record a churn run, replay it at k=1,4,16
//	fragbench -trace ops.log -streams 1,8 tracereplay  # replay a recorded log
//	fragbench -dist uniform:5M-15M interleave  # uniform object sizes
//	fragbench compact              # online compactor duty-cycle sweep
//	fragbench -duty 0,0.25,1 compact  # ... with an explicit duty sweep
//	fragbench -quick all           # every experiment at miniature scale
//	fragbench -csv fig1            # CSV output for plotting
//	fragbench -obs interleave      # + per-layer virtual-time latency tables
//	fragbench -report out.json readcache   # + machine-readable JSON run report
//	fragbench -optrace trace.json compact  # + Chrome trace of retained ops
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/compact"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiments and exit")
		volume  = flag.String("volume", "", "volume size (e.g. 4G, 40G); default 4G")
		occ     = flag.Float64("occupancy", 0, "bulk-load occupancy fraction (default 0.5)")
		maxAge  = flag.Float64("maxage", 0, "deepest storage age for aging curves (default 10)")
		ageStep = flag.Float64("agestep", 0, "age measurement interval (default 1)")
		samples = flag.Int("samples", 0, "reads per throughput measurement (default 200)")
		seed    = flag.Int64("seed", 0, "workload random seed (default 1)")
		shards  = flag.Int("shards", 0, "max shard count for the shard sweep (default 16)")
		streams = flag.String("streams", "", "comma-separated writer-stream counts for the interleave/tracereplay sweeps (default 1,4,16)")
		dist    = flag.String("dist", "", "object-size distribution for the interleave/tracereplay sweeps: constant:SIZE or uniform:MIN-MAX (default constant, ~400 objects/volume)")
		tracef  = flag.String("trace", "", "recorded trace file for the tracereplay experiment (default: record a synthetic churn run)")
		caches  = flag.String("cache", "", "comma-separated cache capacities for the readcache sweep, 0 = no cache (default 0,64M,256M)")
		duty    = flag.String("duty", "", "comma-separated compactor duty cycles in [0,1] for the compact sweep, 0 = off (default 0,0.1,0.5)")
		quick   = flag.Bool("quick", false, "miniature scale for a fast smoke run")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned text")
		verbose = flag.Bool("v", false, "log progress to stderr")
		obsOn   = flag.Bool("obs", false, "instrument store chains: per-op virtual-time latency tables for the interleave/readcache/compact experiments")
		report  = flag.String("report", "", "write a machine-readable JSON run report (tables + per-phase latency quantiles) to this file; implies -obs")
		optrace = flag.String("optrace", "", "write retained per-op traces to this file — Chrome trace-event JSON (chrome://tracing / Perfetto), or JSONL when the name ends in .jsonl; implies -obs")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fragbench [flags] <experiment-id>... | all\n\nflags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nexperiments:\n")
		for _, e := range harness.Experiments {
			fmt.Fprintf(os.Stderr, "  %-8s %s (%s)\n", e.ID, e.Title, e.Paper)
		}
	}
	// Subcommands peel off before experiment-flag parsing.
	if len(os.Args) > 1 && os.Args[1] == "loadgen" {
		runLoadgen(os.Args[2:])
		return
	}

	flag.Parse()

	if *list {
		for _, e := range harness.Experiments {
			fmt.Printf("%-8s %s (%s)\n", e.ID, e.Title, e.Paper)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	cfg := harness.DefaultConfig()
	if *quick {
		cfg = harness.TestConfig()
	}
	if *volume != "" {
		v, err := units.ParseBytes(*volume)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fragbench: %v\n", err)
			os.Exit(2)
		}
		cfg.VolumeBytes = v
	}
	if *occ > 0 {
		cfg.Occupancy = *occ
	}
	if *maxAge > 0 {
		cfg.MaxAge = *maxAge
	}
	if *ageStep > 0 {
		cfg.AgeStep = *ageStep
	}
	if *samples > 0 {
		cfg.ReadSamples = *samples
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *shards > 0 {
		cfg.MaxShards = *shards
	}
	if *streams != "" {
		for _, part := range strings.Split(*streams, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || k < 1 {
				fmt.Fprintf(os.Stderr, "fragbench: bad -streams value %q\n", part)
				os.Exit(2)
			}
			cfg.StreamCounts = append(cfg.StreamCounts, k)
		}
	}
	if *caches != "" {
		for _, part := range strings.Split(*caches, ",") {
			n, err := units.ParseBytes(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(os.Stderr, "fragbench: bad -cache value %q: %v\n", part, err)
				os.Exit(2)
			}
			cfg.CacheBytes = append(cfg.CacheBytes, n)
		}
	}
	if *duty != "" {
		ds, err := compact.ParseDutyList(*duty)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fragbench: %v\n", err)
			os.Exit(2)
		}
		cfg.DutyCycles = ds
	}
	if *dist != "" {
		d, err := workload.ParseDist(*dist)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fragbench: %v\n", err)
			os.Exit(2)
		}
		cfg.Dist = d
	}
	if *tracef != "" {
		cfg.TracePath = *tracef
	}
	if *verbose {
		cfg.Log = os.Stderr
	}
	cfg.Obs = *obsOn
	if *report != "" {
		cfg.Report = obs.NewRunReport()
		cfg.Report.Config = map[string]any{
			"volume_bytes": cfg.VolumeBytes,
			"occupancy":    cfg.Occupancy,
			"max_age":      cfg.MaxAge,
			"age_step":     cfg.AgeStep,
			"read_samples": cfg.ReadSamples,
			"seed":         cfg.Seed,
			"quick":        *quick,
		}
	}
	if *optrace != "" {
		cfg.Tracer = obs.NewTracer()
	}
	// writeOutputs flushes the run report and op trace; called on the
	// normal exit path and before bailing on a failed experiment, so a
	// partial run still leaves its artifacts behind.
	writeOutputs := func() {
		if cfg.Report != nil {
			if err := writeReport(*report, cfg.Report); err != nil {
				fmt.Fprintf(os.Stderr, "fragbench: %v\n", err)
				os.Exit(1)
			}
		}
		if cfg.Tracer != nil {
			if err := writeTrace(*optrace, cfg.Tracer); err != nil {
				fmt.Fprintf(os.Stderr, "fragbench: %v\n", err)
				os.Exit(1)
			}
		}
	}

	ids := args
	if len(args) == 1 && args[0] == "all" {
		ids = harness.IDs()
	}
	for _, id := range ids {
		exp, ok := harness.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "fragbench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		tables, err := exp.Run(cfg)
		if cfg.Report != nil {
			sec := cfg.Report.Section(id)
			sec.Title = exp.Title
			sec.Paper = exp.Paper
			sec.AddTables(tables)
			if err != nil {
				sec.Error = err.Error()
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fragbench: %s: %v\n", id, err)
			writeOutputs()
			os.Exit(1)
		}
		for _, t := range tables {
			if *csv {
				fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
			} else {
				fmt.Println(t.Render())
			}
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "%s finished in %s\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	writeOutputs()
}

// writeReport writes the JSON run report to path.
func writeReport(path string, r *obs.RunReport) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("report: %w", err)
	}
	return f.Close()
}

// writeTrace writes the retained op traces to path: JSONL when the
// name ends in .jsonl, Chrome trace-event JSON otherwise.
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("optrace: %w", err)
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = tr.WriteJSONL(f)
	} else {
		err = tr.WriteChromeTrace(f)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("optrace: %w", err)
	}
	return f.Close()
}
