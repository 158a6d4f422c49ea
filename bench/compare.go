package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"syscall"
)

// resultSet is what `bench all` writes and `bench compare` reads: one
// full set of end-to-end results of one commit.
type resultSet struct {
	Host    hostInfo  `json:"host"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Results []*result `json:"results"`
}

// runsPerSet is how often `bench all` runs each workload. It is part of
// the measurement: a set's spread is taken over these runs and compare's
// bounds were chosen against that spread, so two sets are comparable only
// at the same count.
const runsPerSet = 3

// allMain runs every workload, untraced, into one result set. Each
// workload is run runsPerSet times, the workloads taking turns, because
// on a shared host whole runs drift by more than the rounds inside one
// run show: a set's value is the median over its runs and its spread the
// distance between their quartiles.
func allMain(args []string) error {
	fs := flag.NewFlagSet("bench all", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of the generated op lists")
	seconds := fs.Float64("seconds", runSeconds, "seconds of timed phase per run")
	out := fs.String("out", outDir+"/set.json", "where to write the result set")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := resultSet{Host: thisHost(), Seed: *seed, Seconds: *seconds}
	values := map[string]map[string][]float64{} // workload -> metric -> value per run
	for run := 0; run < runsPerSet; run++ {
		for i, w := range workloads {
			res, err := runFresh(w.name, *seed, *seconds)
			if err != nil {
				return err
			}
			if run == 0 {
				set.Results = append(set.Results, res)
				values[w.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
			set.Results[i].Attempted, set.Results[i].Rounds = res.Attempted, res.Rounds
		}
	}
	for _, res := range set.Results {
		res.PerRound, res.SegmentRates, res.PerRun = nil, nil, values[res.Workload]
		for name, m := range res.Metrics {
			m.Value, m.Spread = median(values[res.Workload][name]), iqrShare(values[res.Workload][name])
			res.Metrics[name] = m
		}
	}
	return writeJSON(*out, set)
}

// runFresh runs one workload the way the contract's command does, in a
// process of its own, and reads back the result that process stored.
// Nothing a run leaves in its process then reaches the next run: not its
// peak RSS, which the kernel never lowers and which is the sim_*
// workloads' peak_rss_mb, nor the heap and collector settings of the
// served_* load generator.
func runFresh(name string, seed int64, seconds float64) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	// The run, and through it its fragserve child, must not outlive an
	// aborted `bench all`.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		// The run has printed what failed, and stored it too.
		return nil, fmt.Errorf("%s, run in its own process: %w", name, err)
	}
	b, err := os.ReadFile(resultPath(name, false))
	if err != nil {
		return nil, err
	}
	res := new(result)
	return res, json.Unmarshal(b, res)
}

// exactOnSim: with one executor stream the simulated results of a sim_*
// workload repeat exactly for a seed, so any movement is a change: a
// regression one way, an improvement the other.
var exactOnSim = map[string]bool{"frags_per_obj": true, "virt_read_mbps": true, "virt_write_mbps": true}

// verdict compares one metric of one workload between base and change.
// The ratio is change/base; bound is the bound that was applied, the
// share of base by which the metric may move in its bad direction.
func verdict(d metricDef, sim, sameSeed bool, base, change metric) (ratio, bound float64, word string) {
	ratio = change.Value / base.Value
	worse := ratio - 1
	if d.better == "higher" {
		worse = -worse
	}
	bound = d.strict
	if sim && sameSeed && exactOnSim[d.name] {
		bound = 0
	}
	noise := max(base.Spread, change.Spread)
	switch {
	case worse > bound && worse > noise:
		word = "REGRESSION"
	case worse > bound || noise > bound:
		// The runs' own spread is wider than the bound or than the move:
		// a move of this size could hide in it either way.
		word = "unresolved"
	case worse < -bound:
		word = "better"
	default:
		word = "unchanged"
	}
	return
}

// compareMain prints one row per (workload, metric) and fails on any
// regression.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench compare BASE.json CHANGE.json")
	}
	var sets [2]resultSet
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	base, change := sets[0], sets[1]
	fmt.Printf("base   %s commit %s seed %d\nchange %s commit %s seed %d\n",
		args[0], base.Host.Commit, base.Seed, args[1], change.Host.Commit, change.Seed)
	fmt.Printf("%-22s %-16s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "base", "change", "ratio", "bound", "spread", "verdict")
	regressions, unresolved := 0, 0
	for _, b := range base.Results {
		var c *result
		for _, r := range change.Results {
			if r.Workload == b.Workload {
				c = r
			}
		}
		if c == nil {
			return fmt.Errorf("%s has no result for %s", args[1], b.Workload)
		}
		if c.ErrorRate > b.ErrorRate {
			fmt.Printf("%-22s %-16s %14g %14g %9s %7s %8s  REGRESSION (any increase)\n", b.Workload, "error_rate", b.ErrorRate, c.ErrorRate, "", "0", "")
			regressions++
		}
		sim := findWorkload(b.Workload) != nil && findWorkload(b.Workload).sim != nil
		for _, d := range endToEnd {
			bm, cm := b.Metrics[d.name], c.Metrics[d.name]
			ratio, bound, word := verdict(d, sim, b.Seed == c.Seed && b.OpDigest == c.OpDigest, bm, cm)
			switch word {
			case "REGRESSION":
				regressions++
			case "unresolved":
				unresolved++
			}
			fmt.Printf("%-22s %-16s %14.4f %14.4f %9.4f %6.1f%% %7.2f%%  %s (%s is better; ratio is change/base %.4f %s)\n",
				b.Workload, d.name, bm.Value, cm.Value, ratio, 100*bound, 100*max(bm.Spread, cm.Spread), word, d.better, bm.Value, bm.Unit)
		}
	}
	fmt.Printf("%d regression(s), %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return fmt.Errorf("%d regression(s)", regressions)
	}
	return nil
}
