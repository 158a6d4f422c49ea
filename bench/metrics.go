package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number. TimeUnit says which clock it was
// measured on: wall (host time), virtual (the simulated disks' clock) or
// none (a count or a size). Wall and virtual numbers are never combined.
type metric struct {
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	TimeUnit string  `json:"time_unit"`
	// Spread is the distance between the quartiles of the per-round (or
	// per-segment) values the reported median was taken from, as a share
	// of that median; compare uses it to tell unchanged from unresolved.
	Spread float64 `json:"spread"`
	// Samples is the number of timings behind a latency percentile, per
	// round; Percentile is the percentile the sample supported.
	Samples    int     `json:"samples,omitempty"`
	Percentile float64 `json:"percentile,omitempty"`
}

// metricInfo names one metric: the contract's fields plus the clock it is
// measured on.
type metricInfo struct{ name, unit, timeUnit, better string }

// metricDef is an end-to-end metric with its two regression bounds.
//
// bound is BENCHMARK.json's: the share of the parent's median by which
// the median of ten runs at ten seeds may worsen. It has to clear three
// times the spread such runs show on a shared 2-core host, which for the
// wall-clock metrics of the served workloads is 5-15 %. strict is what
// `bench compare` applies between two result sets of the same seed.
type metricDef struct {
	metricInfo
	bound, strict float64
}

// endToEnd lists the end-to-end metrics in the order they are printed.
// BENCHMARK.json repeats name, unit, better and bound; a unit test keeps
// the two in step.
var endToEnd = []metricDef{
	{metricInfo{"setup_s", "s", "wall", "lower"}, 0.25, 0.20},
	{metricInfo{"ops_per_s", "1/s", "wall", "higher"}, 0.25, 0.10},
	{metricInfo{"cpu_us_per_op", "us", "wall", "lower"}, 0.25, 0.10},
	{metricInfo{"read_p50_us", "us", "wall", "lower"}, 0.25, 0.10},
	{metricInfo{"read_p99_us", "us", "wall", "lower"}, 0.25, 0.15},
	{metricInfo{"write_p50_us", "us", "wall", "lower"}, 0.25, 0.10},
	{metricInfo{"write_p99_us", "us", "wall", "lower"}, 0.25, 0.15},
	{metricInfo{"peak_rss_mb", "MB", "none", "lower"}, 0.10, 0.10},
	{metricInfo{"frags_per_obj", "frags", "none", "lower"}, 0.10, 0.05},
	{metricInfo{"virt_read_mbps", "MB/s", "virtual", "higher"}, 0.10, 0.05},
	{metricInfo{"virt_write_mbps", "MB/s", "virtual", "higher"}, 0.10, 0.05},
}

// result is everything one run reports. The last line of standard output
// is the contract's four keys; the whole struct goes to
// out/result-<workload>.json for compare.
type result struct {
	Workload  string            `json:"workload"`
	Why       string            `json:"why"`
	Trace     bool              `json:"trace"`
	Seed      int64             `json:"seed"`
	Stack     string            `json:"stack"`
	OpDigest  string            `json:"op_digest"`
	OpCounts  map[string]int    `json:"op_counts"`
	Clients   int               `json:"clients"`
	Loop      string            `json:"loop"`
	Host      hostInfo          `json:"host"`
	Rounds    int               `json:"rounds"`
	TimedS    float64           `json:"timed_s"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	ErrorRate float64           `json:"error_rate"`
	Correct   bool              `json:"correct"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// PerRound holds the per-round values each end-to-end median was
	// taken from, in round order.
	PerRound map[string][]float64 `json:"per_round,omitempty"`
	// SegmentRates holds ops/s of every equal-op-count segment of every
	// round, in order: what each round's ops_per_s is the median of.
	SegmentRates []float64 `json:"segment_ops_per_s,omitempty"`
	// PerRun, in a set written by `bench all`, holds each run's value.
	PerRun map[string][]float64 `json:"per_run,omitempty"`
}

type hostInfo struct {
	// NProc counts the CPUs the process may use: 1 once it is pinned.
	NProc      int    `json:"nproc"`
	PinnedCPU  string `json:"pinned_cpu"` // "" when not pinned
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func thisHost() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		PinnedCPU:  os.Getenv(pinEnv),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(".."),
	}
}

// gitCommit reads the checked-out commit from root/.git without running
// git; a checkout that is not a repository reports "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(root + "/.git/HEAD")
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	ref, isRef := strings.CutPrefix(s, "ref: ")
	if !isRef {
		return s
	}
	if b, err := os.ReadFile(root + "/.git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	return ref
}

// problem records a correctness failure. tag is SIM_DRIFT (a simulated
// result moved), DATA_MISMATCH (the store returned something other than
// what the generator's model expects), OP_FAILED (an op returned an
// error) or RUN_FAILED (the run broke outside any op).
func (r *result) problem(tag, format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, tag+": "+fmt.Sprintf(format, args...))
	}
}

// contractLine is the run's last line of standard output.
func (r *result) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(r.Metrics))
	for name, m := range r.Metrics {
		ms[name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		panic(err) // only NaN/Inf can fail, and finish() rejects those
	}
	return string(b)
}

// finish settles the verdict once every round has reported.
func (r *result) finish() {
	if r.Attempted > 0 {
		r.ErrorRate = float64(r.Failed) / float64(r.Attempted)
	}
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.problem("OP_FAILED", "metric %s is %v", name, m.Value)
			m.Value = 0
			r.Metrics[name] = m
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// iqrShare is the distance between the first and third quartile of xs as
// a share of the median — the spread rule of the benchmark contract
// (Python's statistics.quantiles(xs, n=4), the exclusive method).
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// tailPercentile applies the reporting rule for a tail latency: the
// highest whole percentile that still has at least ten samples beyond
// it, capped at 99. sorted is ascending. It returns the percentile used
// and its value; with fewer than 20 samples it falls back to the median.
func tailPercentile(sorted []int64) (pct float64, value int64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	for p := 99; p > 50; p-- {
		// Nearest-rank percentile; n-1-idx samples lie beyond it.
		idx := (p*n+99)/100 - 1
		if n-1-idx >= 10 {
			return float64(p), sorted[idx]
		}
	}
	return 50, sorted[(n-1)/2]
}

// latencies collects per-op wall latencies (ns) of one round by class.
type latencies struct{ read, write []int64 }

func (l *latencies) add(kind opKind, ns int64) {
	switch kind {
	case opRead:
		l.read = append(l.read, ns)
	case opReplace:
		l.write = append(l.write, ns)
	}
}

// classLatency is one round's latency summary for reads or for safe
// replaces: the median and the tail the sample supports, in µs. Rounds
// keep the summary, not the samples, so the bench's own memory does not
// grow with the number of rounds.
type classLatency struct {
	p50us, tailUs, pct float64
	samples            int
}

// summarize applies the percentile rule to one round's samples.
func (l *latencies) summarize() (read, write classLatency) {
	one := func(ns []int64) classLatency {
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		if len(ns) == 0 {
			return classLatency{}
		}
		pct, tail := tailPercentile(ns)
		return classLatency{p50us: float64(ns[(len(ns)-1)/2]) / 1e3, tailUs: float64(tail) / 1e3, pct: pct, samples: len(ns)}
	}
	return one(l.read), one(l.write)
}

// roundResult is what one round measured: a fresh stack, setup, then the
// fixed timed op list.
type roundResult struct {
	setupS    float64
	segRates  []float64 // ops/s of each equal-op-count segment
	timedS    float64
	ops       int64
	cpuS      float64 // of the process hosting the stack, over the timed phase
	rssMB     float64 // its VmHWM at the end of the round
	read      classLatency
	write     classLatency
	frags     float64
	readMBps  float64 // virtual
	writeMBps float64 // virtual
	// speeds are the yardstick's readings around the timed phases (ref.go),
	// each a share of refNominal; none in the traced mode.
	speeds []float64
}

// minRounds is the fewest rounds a run takes a median over, however long
// a round lasts on this host.
const minRounds = 3

// reportRounds turns rounds into the end-to-end metrics. Each metric is
// computed per round and reported as the median over rounds, with the
// rounds' spread; a round's ops_per_s is itself the median of its
// segments, so one noisy-neighbour burst cannot move it. Latencies follow
// the percentile rule within a round. Every wall-clock value of a round is
// put at reference speed: a round the yardstick found the host running at
// 0.8 of its nominal speed has its times multiplied by 0.8 and its rate
// divided by it. The readings are stored as host_speed, the segments'
// rates as measured.
func reportRounds(res *result, rounds []roundResult) {
	res.Rounds = len(rounds)
	res.PerRound = map[string][]float64{}
	for _, r := range rounds {
		res.TimedS += r.timedS
		res.SegmentRates = append(res.SegmentRates, r.segRates...)
		speed := 1.0
		if len(r.speeds) > 0 {
			speed = mean(r.speeds)
		}
		perRound := map[string]float64{
			"host_speed":      speed,
			"setup_s":         r.setupS * speed,
			"ops_per_s":       median(r.segRates) / speed,
			"cpu_us_per_op":   r.cpuS * 1e6 / float64(r.ops) * speed,
			"peak_rss_mb":     r.rssMB,
			"frags_per_obj":   r.frags,
			"virt_read_mbps":  r.readMBps,
			"virt_write_mbps": r.writeMBps,
			"read_p50_us":     r.read.p50us * speed,
			"read_p99_us":     r.read.tailUs * speed,
			"write_p50_us":    r.write.p50us * speed,
			"write_p99_us":    r.write.tailUs * speed,
		}
		for name, v := range perRound {
			res.PerRound[name] = append(res.PerRound[name], v)
		}
	}
	for _, d := range endToEnd {
		v := res.PerRound[d.name]
		m := metric{Value: median(v), Unit: d.unit, TimeUnit: d.timeUnit, Spread: iqrShare(v)}
		last := rounds[len(rounds)-1]
		switch d.name {
		case "read_p50_us":
			m.Samples, m.Percentile = last.read.samples, 50
		case "read_p99_us":
			m.Samples, m.Percentile = last.read.samples, last.read.pct
		case "write_p50_us":
			m.Samples, m.Percentile = last.write.samples, 50
		case "write_p99_us":
			m.Samples, m.Percentile = last.write.samples, last.write.pct
		}
		res.Metrics[d.name] = m
	}
}
