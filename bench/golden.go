package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/harness"
	"repro/internal/units"
)

// goldenConfig is bench_test.go's benchConfig: the scale at which the
// repository pins "fig2/fig3 stay bit-identical".
func goldenConfig() harness.Config {
	return harness.Config{
		VolumeBytes: 1 * units.GB,
		Occupancy:   0.5,
		MaxAge:      6,
		AgeStep:     2,
		ReadSamples: 100,
		Seed:        1,
	}
}

// figureDigests runs the paper's two fragmentation figures and digests
// their tables (CSV form, every digit).
func figureDigests() (map[string]string, error) {
	out := map[string]string{}
	for _, id := range []string{"fig2", "fig3"} {
		exp, ok := harness.ByID(id)
		if !ok {
			return nil, fmt.Errorf("harness has no experiment %q", id)
		}
		tables, err := exp.Run(goldenConfig())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		h := sha256.New()
		for _, t := range tables {
			h.Write([]byte(t.CSV()))
		}
		out[id] = hex.EncodeToString(h.Sum(nil))
	}
	return out, nil
}

// checkGolden fails the run with SIM_DRIFT when a figure's simulated
// numbers differ from golden.json in any digit.
func checkGolden(res *result) {
	res.Attempted++
	b, err := os.ReadFile("golden.json")
	if err != nil {
		res.problem("SIM_DRIFT", "%v", err)
		return
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		res.problem("SIM_DRIFT", "golden.json: %v", err)
		return
	}
	got, err := figureDigests()
	if err != nil {
		res.problem("SIM_DRIFT", "%v", err)
		return
	}
	for id, d := range want {
		if got[id] != d {
			res.problem("SIM_DRIFT", "%s tables digest %s, golden.json has %s", id, got[id], d)
		}
	}
}
