package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/workload"
)

// runLoadgen is the `fragbench loadgen` subcommand: drive a running
// fragserve instance with concurrent op streams through
// workload.Executor over one client.Store, and report wall-clock tail
// latency per op kind, optionally as a JSON run report.
func runLoadgen(args []string) {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	var (
		url      = fs.String("url", "http://127.0.0.1:8080", "fragserve base URL")
		clientsN = fs.Int("clients", 64, "peak concurrent streams (the default ramp's last step)")
		ramp     = fs.String("ramp", "", fmt.Sprintf("comma-separated concurrency schedule, each step 1..%d (default: clients/4, clients/2, clients)", workload.MaxStreams))
		duration = fs.Duration("duration", 5*time.Second, "wall-clock duration of EACH ramp step")
		objects  = fs.Int("objects", 512, "objects prepopulated before measuring")
		size     = fs.String("size", "64K", "object-size distribution (constant:SIZE or uniform:MIN-MAX)")
		reads    = fs.Int("reads", 2, "whole-object reads interleaved per successful write")
		payload  = fs.Bool("payload", false, "ship real object bytes (default: metadata-only writes)")
		seed     = fs.Int64("seed", 1, "op-stream random seed")
		report   = fs.String("report", "", "write a schema-valid JSON run report to this file")
	)
	fs.Usage = func() {
		fmt.Fprint(os.Stderr, `usage: fragbench loadgen [flags]

Drives a running fragserve with the simulator's own op executor
(workload.Executor) over one client.Store: it prepopulates -objects
objects, then runs the churn mix at each ramp step's k concurrent
streams for -duration. Each op is what the executor does to any store:
a replace is a HEAD then a PUT, a read a HEAD that opens the object
then a GET of the version it pinned. Prints, per step and op kind,
the count of successful ops and their wall-clock latency quantiles,
with the kind's failed ops (errs) and, among them, admission sheds
(shed).

flags:
`)
		fs.PrintDefaults()
	}
	fs.Parse(args)

	dist, err := workload.ParseDist(*size)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fragbench loadgen: %v\n", err)
		os.Exit(2)
	}
	steps, err := parseRamp(*ramp, *clientsN)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fragbench loadgen: %v\n", err)
		os.Exit(2)
	}

	cfg := loadgen.Config{
		URL:           *url,
		Ramp:          steps,
		StepDuration:  *duration,
		Objects:       *objects,
		Dist:          dist,
		ReadsPerWrite: *reads,
		Payload:       *payload,
		Seed:          *seed,
	}
	if *report != "" {
		cfg.Report = obs.NewRunReport()
		cfg.Report.Config = map[string]any{
			"url":       *url,
			"ramp":      steps,
			"step_secs": duration.Seconds(),
			"objects":   *objects,
			"size":      *size,
			"reads":     *reads,
			"payload":   *payload,
			"seed":      *seed,
		}
		sec := cfg.Report.Section("loadgen")
		sec.Title = "network blob service load generation"
	}

	res, err := loadgen.Run(context.Background(), cfg)
	if cfg.Report != nil {
		if werr := writeReport(*report, cfg.Report); werr != nil {
			fmt.Fprintf(os.Stderr, "fragbench loadgen: %v\n", werr)
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fragbench loadgen: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("loaded %d objects; %d ops total\n\n", res.Loaded, res.TotalOps())
	fmt.Printf("%-8s %-10s %10s %8s %8s %10s %10s %10s\n",
		"step", "op", "count", "errs", "shed", "p50(ms)", "p99(ms)", "p999(ms)")
	for _, step := range res.Steps {
		for _, kind := range []string{"create", "replace", "read", "delete"} {
			ok, errs, shed := step.Snapshot.Outcomes("op." + kind)
			if ok+errs == 0 {
				continue
			}
			h := step.Snapshot.Histograms["op."+kind] // nil when every op failed
			fmt.Printf("%-8s %-10s %10d %8d %8d %10.2f %10.2f %10.2f\n",
				fmt.Sprintf("k=%d", step.Clients), kind, ok, errs, shed,
				ms(h.Quantile(0.5)), ms(h.Quantile(0.99)), ms(h.Quantile(0.999)))
		}
	}
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// parseRamp parses a comma-separated concurrency schedule, defaulting
// to a three-step ramp up to the peak client count.
func parseRamp(spec string, clients int) ([]int, error) {
	if clients < 1 {
		return nil, fmt.Errorf("bad -clients %d", clients)
	}
	if spec == "" {
		var steps []int
		for _, k := range []int{clients / 4, clients / 2, clients} {
			if k >= 1 && (len(steps) == 0 || k > steps[len(steps)-1]) {
				steps = append(steps, k)
			}
		}
		return steps, nil
	}
	var steps []int
	for _, part := range strings.Split(spec, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || k < 1 {
			return nil, fmt.Errorf("bad -ramp value %q", part)
		}
		steps = append(steps, k)
	}
	return steps, nil
}
