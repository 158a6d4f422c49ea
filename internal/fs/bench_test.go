package fs

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/units"
	"repro/internal/vclock"
)

func benchVolume(capacity int64) *Volume {
	d := disk.New(disk.DefaultGeometry(capacity), vclock.New(), disk.MetadataMode)
	return Format(d, Config{})
}

// BenchmarkSafeWriteChurn measures the volume's steps of a safe write
// (replaceFile) under steady replacement churn.
func BenchmarkSafeWriteChurn(b *testing.B) {
	v := benchVolume(1 * units.GB)
	const n = 100
	for i := 0; i < n; i++ {
		replaceFile(b, v, fmt.Sprintf("o%d", i), 1*units.MB)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replaceFile(b, v, fmt.Sprintf("o%d", rng.Intn(n)), 1*units.MB)
	}
}

// BenchmarkAppend64K measures the per-request append path.
func BenchmarkAppend64K(b *testing.B) {
	// Slack covers the 1% MFT zone reservation at large b.N.
	v := benchVolume(max(int64(b.N)*72*units.KB+256*units.MB, 1*units.GB))
	f, err := v.Create("stream")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Append(64*units.KB, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadAllAged measures whole-file reads on a fragmented volume.
func BenchmarkReadAllAged(b *testing.B) {
	v := benchVolume(1 * units.GB)
	const n = 100
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		replaceFile(b, v, fmt.Sprintf("o%d", i), 1*units.MB)
	}
	for i := 0; i < 4*n; i++ {
		replaceFile(b, v, fmt.Sprintf("o%d", rng.Intn(n)), 1*units.MB)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := v.Open(fmt.Sprintf("o%d", rng.Intn(n)))
		if err != nil {
			b.Fatal(err)
		}
		f.ReadAll()
	}
}
