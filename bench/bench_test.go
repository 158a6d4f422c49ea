package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/blob"
)

// Same seed, same inputs; another seed, other inputs.
func TestOpListDigest(t *testing.T) {
	sim := *findWorkload("sim_fs_aged").sim
	sim.capacity = 64 << 20 // the property does not need 8 GB of objects
	served := *findWorkload("served_small_meta").served
	large := *findWorkload("served_large_payload").served
	gen := func(seed int64) [3]string {
		return [3]string{
			digest(genSim(seed, sim)...),
			digest(genServed(seed, served, 2)...),
			digest(genServed(seed, large, 2)...),
		}
	}
	a, b, c := gen(1), gen(1), gen(2)
	if a != b {
		t.Errorf("seed 1 twice: digests %v and %v", a, b)
	}
	for i := range a {
		if a[i] == c[i] {
			t.Errorf("list %d: seeds 1 and 2 share digest %s", i, a[i])
		}
	}
}

// The generator's model must describe its own lists: replaying a list
// against a plain map ends in the recorded end state.
func TestModelMatchesList(t *testing.T) {
	for _, l := range genServed(7, *findWorkload("served_small_meta").served, 2) {
		size := map[int32]int64{}
		replay := func(ops []genOp) {
			for _, o := range ops {
				switch o.kind {
				case opCreate, opReplace:
					if _, exists := size[o.key]; exists == (o.kind == opCreate) {
						t.Fatalf("%s of key %d: exists=%v", o.kind, o.key, exists)
					}
					size[o.key] = o.size
				case opDelete:
					delete(size, o.key)
				default:
					if size[o.key] != o.size {
						t.Fatalf("%s of key %d expects size %d, replay has %d", o.kind, o.key, o.size, size[o.key])
					}
				}
			}
		}
		replay(l.setup)
		replay(l.warm)
		for _, seg := range l.segments {
			replay(seg)
			if len(seg) != len(l.segments[0]) {
				t.Errorf("segments of %d and %d ops; want equal op counts", len(seg), len(l.segments[0]))
			}
		}
		var total int64
		for _, s := range size {
			total += s
		}
		if len(size) != l.endObjects || total != l.endBytes {
			t.Errorf("replay ends with %d objects, %d bytes; model recorded %d, %d", len(size), total, l.endObjects, l.endBytes)
		}
	}
}

func TestPayloadCheck(t *testing.T) {
	buf := make([]byte, 8*sizeQuantum)
	fillPayload(buf, "c0/00001", 3)
	if !checkPayload(buf, "c0/00001", 3, 0) {
		t.Error("payload does not match itself")
	}
	if !checkPayload(buf[2*sizeQuantum:5*sizeQuantum], "c0/00001", 3, 2*sizeQuantum) {
		t.Error("range of payload does not match at its offset")
	}
	if checkPayload(buf[2*sizeQuantum:5*sizeQuantum], "c0/00001", 3, 0) {
		t.Error("range accepted at the wrong offset")
	}
	if checkPayload(buf, "c0/00001", 4, 0) || checkPayload(buf, "c0/00002", 3, 0) {
		t.Error("payload accepted for another version or key")
	}
	buf[5*sizeQuantum+100] ^= 1
	if checkPayload(buf, "c0/00001", 3, 0) {
		t.Error("flipped bit accepted")
	}
}

// The tail rule: the highest percentile with at least ten samples beyond
// it, capped at p99.
func TestTailPercentile(t *testing.T) {
	ramp := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n     int
		pct   float64
		value int64
	}{
		{100000, 99, 99000}, // plenty of samples: capped at p99
		{1000, 99, 990},     // exactly ten beyond p99
		{999, 98, 980},      // nine beyond p99, so p98
		{200, 95, 190},      // ten beyond p95
		{40, 75, 30},        // ten beyond p75
		{15, 50, 8},         // too few for any tail: the median
	} {
		pct, v := tailPercentile(ramp(c.n))
		if pct != c.pct || v != c.value {
			t.Errorf("n=%d: p%g = %d, want p%g = %d", c.n, pct, v, c.pct, c.value)
		}
	}
}

func TestIQRShare(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

// Self time is a span minus what its children cover, with overlapping
// children counted once and children clipped to the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Parent: -1, Layer: "client", Start: 0, End: 100}, // 0: children cover [10,60] and [80,100]
		{Parent: 0, Layer: "server", Start: 10, End: 50},  // 1: child covers [20,30]
		{Parent: 0, Layer: "server", Start: 40, End: 60},  // 2: overlaps span 1 on [40,50]
		{Parent: 0, Layer: "server", Start: 80, End: 120}, // 3: sticks out of the parent
		{Parent: 1, Layer: "core", Start: 20, End: 30},    // 4
		{Parent: 3, Layer: "core", Start: 90, End: 95},    // 5
	}
	want := []int64{100 - 50 - 20, 40 - 10, 20, 40 - 5, 10, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	// A properly nested op: self times add up to the root span.
	nested := []span{
		{Parent: -1, Layer: "client", Start: 0, End: 100},
		{Parent: 0, Layer: "server", Start: 10, End: 90},
		{Parent: 1, Layer: "core", Start: 20, End: 40},
		{Parent: 1, Layer: "core", Start: 50, End: 80},
	}
	var sum int64
	for _, s := range selfTimes(nested) {
		sum += s
	}
	if sum != 100 {
		t.Errorf("nested self times sum to %d, want the root's 100", sum)
	}
	lt := newLayerTotals()
	lt.add([]*opTrace{{kind: opRead, spans: nested}})
	if lt.selfUs("core", 0) != 0.05 || lt.selfUs("server", 0) != 0.03 || lt.selfUs("client", 0) != 0.02 {
		t.Errorf("layer self µs: core %v server %v client %v", lt.selfUs("core", 0), lt.selfUs("server", 0), lt.selfUs("client", 0))
	}
	if lt.spanUs("core", 0) != 0.05 {
		t.Errorf("core span µs = %v, want 0.05", lt.spanUs("core", 0))
	}
}

// The contract line holds exactly the four keys, and the full result
// survives a JSON round trip.
func TestResultSchema(t *testing.T) {
	r := &result{Workload: "sim_fs_aged", Seed: 3, Stack: "file:8G|meta", Attempted: 10, Metrics: map[string]metric{}}
	for i, d := range endToEnd {
		r.Metrics[d.name] = metric{Value: float64(i) + 0.5, Unit: d.unit, TimeUnit: d.timeUnit, Spread: 0.01}
	}
	r.finish()
	if !r.Correct {
		t.Fatal("a run with no failures is not correct")
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(r.contractLine()), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("contract line has keys %v", line)
	}
	var ms map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if len(ms[d.name]) != 2 || ms[d.name]["unit"] != d.unit {
			t.Errorf("metric %s printed as %v", d.name, ms[d.name])
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, r) {
		t.Errorf("round trip changed the result:\n%+v\n%+v", back, *r)
	}

	r.problem("DATA_MISMATCH", "size %d", 1)
	r.finish()
	if r.Correct || r.ErrorRate != 0.1 {
		t.Errorf("after one failure of ten: correct=%v error_rate=%v", r.Correct, r.ErrorRate)
	}
}

// Simulator reads are timed in batches of readBatch, cut where the op kind
// changes and at the end of the list; every other op is its own sample.
func TestReadBatches(t *testing.T) {
	var ops []genOp
	for i := 0; i < 2*readBatch+6; i++ {
		ops = append(ops, genOp{kind: opRead})
	}
	ops = append(ops, genOp{kind: opReplace}, genOp{kind: opReplace}, genOp{kind: opRead})
	var lat latencies
	src := &replaySource{keys: []string{"k"}, ops: ops, lat: &lat}
	for {
		op, ok := src.Next(nil)
		if !ok {
			break
		}
		src.Observe(op, nil)
	}
	if len(lat.read) != 4 || len(lat.write) != 2 {
		t.Errorf("%d read samples and %d write samples, want 4 (32+32+6, then 1) and 2", len(lat.read), len(lat.write))
	}
}

// A round's wall-clock values are reported at reference speed: times are
// multiplied by the yardstick's reading, rates divided by it; counts,
// sizes and virtual-clock values stay as they are, and a round without
// readings is reported as measured.
func TestReferenceSpeed(t *testing.T) {
	round := roundResult{
		setupS: 2, segRates: []float64{900, 1000, 1100}, timedS: 3, ops: 3000, cpuS: 0.3, rssMB: 50,
		read:  classLatency{p50us: 10, tailUs: 40, pct: 99, samples: 2000},
		write: classLatency{p50us: 20, tailUs: 80, pct: 99, samples: 1000},
		frags: 5, readMBps: 8, writeMBps: 7,
	}
	slow := round
	slow.speeds = []float64{0.75, 0.85}
	for _, c := range []struct {
		round roundResult
		speed float64
	}{{round, 1}, {slow, 0.8}} {
		res := &result{Metrics: map[string]metric{}}
		reportRounds(res, []roundResult{c.round})
		want := map[string]float64{
			"setup_s": 2 * c.speed, "ops_per_s": 1000 / c.speed, "cpu_us_per_op": 100 * c.speed,
			"read_p50_us": 10 * c.speed, "read_p99_us": 40 * c.speed, "write_p50_us": 20 * c.speed, "write_p99_us": 80 * c.speed,
			"peak_rss_mb": 50, "frags_per_obj": 5, "virt_read_mbps": 8, "virt_write_mbps": 7,
		}
		for name, v := range want {
			if got := res.Metrics[name].Value; math.Abs(got-v) > 1e-9*v {
				t.Errorf("host speed %v: %s = %v, want %v", c.speed, name, got, v)
			}
		}
		if got := res.PerRound["host_speed"][0]; math.Abs(got-c.speed) > 1e-12 {
			t.Errorf("host_speed stored as %v, want %v", got, c.speed)
		}
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics, with the same units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds %v in BENCHMARK.json, %v in the program", spec.RunSeconds, runSeconds)
	}
	if len(spec.Workloads) != len(workloads) || len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, program has %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []jm, want []metricInfo) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, program has %+v", kind, i, g, d)
			}
		}
	}
	infos := make([]metricInfo, len(endToEnd))
	for i, d := range endToEnd {
		infos[i] = d.metricInfo
		if b := spec.EndToEnd[i].Bound; b == nil || *b != d.bound {
			t.Errorf("end_to_end %s: bounds differ", d.name)
		}
	}
	check("end_to_end", spec.EndToEnd, infos)
	check("per_layer", spec.PerLayer, perLayer)
}

// flipStore hands out readers whose whole-object reads come back with one
// bit flipped: a store that returns wrong bytes.
type flipStore struct{ blob.Store }

type flipReader struct{ blob.Reader }

func (s flipStore) Open(ctx context.Context, key string) (blob.Reader, error) {
	r, err := s.Store.Open(ctx, key)
	return flipReader{r}, err
}

func (r flipReader) ReadAll() ([]byte, error) {
	data, err := r.Reader.ReadAll()
	if len(data) > 0 {
		data = append([]byte(nil), data...)
		data[len(data)/2] ^= 1
	}
	return data, err
}

// A round over a store that returns wrong bytes must say so: the failed
// reads are counted, each is on record as a DATA_MISMATCH line with its
// op, key and client, and the round returns an error next to the result.
func TestServedLoadReportsMismatch(t *testing.T) {
	p := servedParams{objects: 8, sizeLo: 16 << 10, sizeHi: 32 << 10, payload: true, segments: 5, itersPerSegment: 2, sweepWrites: 2}
	lists := genServed(1, p, 2)
	for _, c := range []struct {
		name string
		wrap wrapFunc
		bad  bool
	}{
		{"honest", nil, false},
		{"flipped", func(_ string, _ int, s blob.Store) blob.Store { return flipStore{s} }, true},
	} {
		st, err := stackSpec{backend: "file", capacity: 16 << 20, shards: 1, dataMode: true}.build(c.wrap)
		if err != nil {
			t.Fatal(err)
		}
		url, _, stop, err := serveInProcess(st.top, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := &result{Metrics: map[string]metric{}}
		_, err = servedLoad{url: url, lists: lists, p: &p, start: time.Now(), cpu: selfCPU}.run(context.Background(), res)
		stop()
		st.close()
		res.finish()
		if !c.bad {
			if err != nil || !res.Correct {
				t.Errorf("%s store: err %v, problems %v", c.name, err, res.Problems)
			}
			continue
		}
		// 2 reads per iteration, every one of them flipped.
		if want := int64(2 * p.segments * p.itersPerSegment); err == nil || res.Correct || res.Failed != want {
			t.Errorf("%s store: err %v, correct %v, %d failed; want an error and %d failed", c.name, err, res.Correct, res.Failed, want)
		}
		if len(res.Problems) == 0 || !strings.HasPrefix(res.Problems[0], "DATA_MISMATCH: read c0/") || !strings.Contains(res.Problems[0], "(client 0, timed phase)") {
			t.Errorf("%s store: problems %q; want DATA_MISMATCH lines naming op, key, client and phase", c.name, res.Problems)
		}
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{metricInfo{"ops_per_s", "1/s", "wall", "higher"}, 0.25, 0.10}
	m := func(v, spread float64) metric { return metric{Value: v, Spread: spread} }
	for _, c := range []struct {
		base, change metric
		want         string
	}{
		{m(100, 0.01), m(95, 0.01), "unchanged"},
		{m(100, 0.01), m(85, 0.01), "REGRESSION"},
		{m(100, 0.01), m(120, 0.01), "better"},
		{m(100, 0.20), m(95, 0.01), "unresolved"},
	} {
		if _, _, got := verdict(d, false, true, c.base, c.change); got != c.want {
			t.Errorf("%v -> %v: %s, want %s", c.base.Value, c.change.Value, got, c.want)
		}
	}
	frags := metricDef{metricInfo{"frags_per_obj", "frags", "none", "lower"}, 0.10, 0.05}
	// Exact on a sim workload at the same seed: the applied bound is 0 and
	// any movement is named, whichever way it goes.
	for _, c := range []struct {
		change float64
		want   string
	}{{5.001, "REGRESSION"}, {4.999, "better"}, {5, "unchanged"}} {
		if _, bound, got := verdict(frags, true, true, m(5, 0), m(c.change, 0)); got != c.want || bound != 0 {
			t.Errorf("sim frags/object 5 -> %v at the same seed: %s under bound %v, want %s under 0", c.change, got, bound, c.want)
		}
	}
	if _, bound, _ := verdict(frags, false, true, m(5, 0), m(5, 0)); bound != frags.strict {
		t.Errorf("served frags/object compared under bound %v, want %v", bound, frags.strict)
	}
	if _, _, got := verdict(frags, false, true, m(5, 0), m(5.001, 0)); got != "unchanged" {
		t.Errorf("served frags/object moved 0.02%%: %s, want unchanged", got)
	}
}
