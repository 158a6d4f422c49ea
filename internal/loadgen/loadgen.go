// Package loadgen drives a network blob service with hundreds of
// concurrent op streams and measures wall-clock tail latency — the bridge
// from the repo's virtual-time simulations to a servable system.
//
// It runs the repository's one op executor, workload.Executor, over one
// dialed client.Store, with the simulator's own sources (LoadSource to
// prepopulate, ChurnSource to measure), so it drives the paper's §4.3
// get/put mix exactly as an in-process run does. The store's connection
// pool gives each concurrent stream a keep-alive connection of its own.
// On the wire each op is what the executor does to any store:
//
//   - create: a HEAD that refuses an existing key, then a PUT;
//   - replace: a HEAD (the application's metadata lookup), then a PUT;
//   - delete: a HEAD, then a DELETE;
//   - read: a HEAD that opens the object and pins its version, then a
//     GET of that version (a Range GET for a ranged read).
//
// Each stream has a seeded RNG and a disjoint slice of the keyspace (no
// artificial ErrBusy collisions). The executor's own obs.Collector,
// over a wall-unit registry, times each measured op on the wall clock:
// the same op.<kind> histograms of successful ops and
// op.<kind>.err.<sentinel> counters of failed ones that an in-process
// run records in virtual time, tagged wall_ns, so p999 comes from the
// same quantile machinery as the virtual-time figures.
//
// Concurrency is ramped: each step in Config.Ramp runs the churn mix at
// k streams for Config.StepDuration on a freshly reset registry and
// snapshots into its own "k=N" RunReport phase, so one run shows how
// the tail moves as offered load grows into the server's admission
// limits. Admission sheds (429→ErrOverloaded, 503→ErrUnavailable) are
// counted per op kind and never retried while measuring; prepopulation
// retries them until they land.
package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blob"
	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/units"
	"repro/internal/workload"
)

// Config parameterizes one load-generation run.
type Config struct {
	// URL is the service base URL (e.g. http://127.0.0.1:8080).
	URL string
	// Ramp is the concurrency schedule: one measured phase per entry,
	// in order. Every entry must be in [1, workload.MaxStreams].
	Ramp []int
	// StepDuration is the wall-clock length of each measured phase.
	StepDuration time.Duration
	// Objects is the keyspace size prepopulated before measuring.
	Objects int
	// Dist draws object sizes (prepopulation and replacement writes).
	Dist workload.SizeDist
	// ReadsPerWrite interleaves whole-object reads after each
	// successful replace (the §4.3 get/put mix).
	ReadsPerWrite int
	// Seed fixes every stream's ops (timing still varies).
	Seed int64
	// Report, when non-nil, receives one experiment with a phase per
	// ramp step.
	Report *obs.RunReport
	// Payload ships real object bytes; false writes metadata only
	// (sizes travel, bytes don't).
	Payload bool
}

// Result summarizes a run.
type Result struct {
	// Steps has one entry per ramp step, in order.
	Steps []StepResult
	// Loaded is the number of objects prepopulated.
	Loaded int
}

// StepResult is one measured concurrency step.
type StepResult struct {
	// Clients is the step's concurrency (the k in its "k=N" phase).
	Clients int
	// Ops counts completed operations (success or failure).
	Ops int64
	// Errors counts failed operations, including sheds.
	Errors int64
	// Shed counts admission rejections (429 + 503).
	Shed int64
	// Snapshot is the step's wall-clock registry snapshot.
	Snapshot obs.Snapshot
}

// TotalOps sums completed ops across all steps.
func (r Result) TotalOps() int64 {
	var n int64
	for _, s := range r.Steps {
		n += s.Ops
	}
	return n
}

// Run executes the full schedule over one dialed store: prepopulate
// with as many streams as the largest ramp entry, then one measured
// churn phase per ramp entry. The context cancels the whole run
// (in-flight ops are abandoned mid-request, and the cut step is not
// reported).
func Run(ctx context.Context, cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	c, err := client.Dial(cfg.URL)
	if err != nil {
		return Result{}, fmt.Errorf("loadgen: %w", err)
	}
	defer c.Close()
	exec := workload.NewExecutor(c).WithContext(ctx).WithPayload(cfg.Payload)

	// Prepopulation: LoadSource streams racing for one byte budget sized
	// to cfg.Objects mean-sized objects; keys holds those that committed.
	budget := workload.NewByteBudget(int64(cfg.Objects) * units.RoundUp(cfg.Dist.Mean(), 4*units.KB))
	var nextKey atomic.Int64
	var mu sync.Mutex
	var keys []string
	var load []workload.Stream
	for i := range slices.Max(cfg.Ramp) {
		load = append(load, workload.Stream{
			Source: &workload.LoadSource{
				Dist:   cfg.Dist,
				Budget: budget,
				Key:    func() string { return fmt.Sprintf("o%06d", nextKey.Add(1)) },
				OnCreate: func(key string) {
					mu.Lock()
					keys = append(keys, key)
					mu.Unlock()
				},
			},
			RNG: rand.New(rand.NewSource(cfg.Seed + int64(i))),
		})
	}
	if _, err := exec.Run(load, workload.RunOptions{Errors: workload.RetryShed}); ctx.Err() != nil {
		return Result{}, ctx.Err()
	} else if err != nil {
		return Result{}, fmt.Errorf("loadgen: prepopulate: %w", err)
	}
	if len(keys) == 0 {
		return Result{}, fmt.Errorf("loadgen: prepopulate committed no objects")
	}

	res := Result{Loaded: len(keys)}
	reg := obs.NewWallRegistry()
	exec.WithCollector(&obs.Collector{Registry: reg})
	for _, k := range cfg.Ramp {
		reg.Reset()
		startNs := obs.WallNow()
		age := func() float64 {
			return float64(obs.WallNow()-startNs) / float64(cfg.StepDuration.Nanoseconds())
		}
		var streams []workload.Stream
		for i := range min(k, len(keys)) {
			// Disjoint partition: stream i of k owns every key whose index
			// ≡ i (mod k), so concurrent safe-writes never contend on a
			// key and every ErrBusy the run sees is the server's, not the
			// schedule's.
			var part []string
			for j := i; j < len(keys); j += k {
				part = append(part, keys[j])
			}
			streams = append(streams, workload.Stream{
				Source: &workload.ChurnSource{
					Keys:          part,
					Dist:          cfg.Dist,
					TargetAge:     1,
					Age:           age,
					ReadsPerWrite: cfg.ReadsPerWrite,
				},
				RNG: rand.New(rand.NewSource(cfg.Seed + 1000003*int64(k) + int64(i))),
			})
		}
		if _, err := exec.Run(streams, workload.RunOptions{Errors: workload.Continue}); ctx.Err() != nil {
			return res, ctx.Err()
		} else if err != nil {
			return res, fmt.Errorf("loadgen: step k=%d: %w", k, err)
		}
		snap := reg.Snapshot()
		ok, failed, shed := snap.Outcomes("op.")
		step := StepResult{Clients: k, Ops: ok + failed, Errors: failed, Shed: shed, Snapshot: snap}
		res.Steps = append(res.Steps, step)
		if cfg.Report != nil {
			cfg.Report.Section("loadgen").AddPhase(fmt.Sprintf("k=%d", k), step.Snapshot)
		}
	}
	return res, nil
}

func (cfg Config) validate() error {
	if cfg.URL == "" {
		return fmt.Errorf("loadgen: %w: empty service URL", blob.ErrBadOption)
	}
	if len(cfg.Ramp) == 0 {
		return fmt.Errorf("loadgen: %w: empty concurrency ramp", blob.ErrBadOption)
	}
	for _, k := range cfg.Ramp {
		if k < 1 || k > workload.MaxStreams {
			return fmt.Errorf("loadgen: %w: ramp step %d outside [1, %d]", blob.ErrBadOption, k, workload.MaxStreams)
		}
	}
	if cfg.StepDuration <= 0 {
		return fmt.Errorf("loadgen: %w: step duration %v must be positive", blob.ErrBadOption, cfg.StepDuration)
	}
	if cfg.Objects < 1 {
		return fmt.Errorf("loadgen: %w: need at least one object", blob.ErrBadOption)
	}
	if cfg.Dist == nil {
		return fmt.Errorf("loadgen: %w: nil size distribution", blob.ErrBadOption)
	}
	return nil
}
