// Package frag measures fragmentation, the paper's central metric:
// fragments per object, where a contiguous object has one fragment
// (Figure 2 caption).
//
// Two independent measurements are provided, mirroring the paper's
// methodology (§5.3):
//
//   - direct analysis of extent lists reported by the storage engines,
//     the way the Windows defragmentation utility reports file layout; and
//   - a marker scanner that walks the disk's owner map — the analog of
//     the paper's tool that "tagged each of our objects with a unique
//     identifier and a sequence number at 1KB intervals, and then
//     determined the physical locations of these markers on the hard
//     disk". The paper validated its tool against the NTFS defragmenter;
//     the tests here validate the two paths against each other.
package frag

import (
	"fmt"
	"sort"

	"repro/internal/disk"
	"repro/internal/extent"
)

// CountRunFragments returns the number of physically discontiguous runs
// in an object's logically ordered extent list.
func CountRunFragments(runs []extent.Run) int {
	n := 0
	for i, r := range runs {
		if i == 0 || runs[i-1].End() != r.Start {
			n++
		}
	}
	return n
}

// ObjectReport is one object's fragmentation measurement.
type ObjectReport struct {
	Key       string
	Bytes     int64
	Fragments int
}

// Report aggregates fragmentation across a set of objects.
type Report struct {
	Objects        int
	TotalFragments int
	MaxFragments   int
	TotalBytes     int64
	PerObject      []ObjectReport // sorted by key when built via Analyze
}

// MeanFragments returns mean fragments/object — the paper's y-axis.
func (r Report) MeanFragments() float64 {
	if r.Objects == 0 {
		return 0
	}
	return float64(r.TotalFragments) / float64(r.Objects)
}

// FragmentsPer64KB returns fragments per 64 KB of object data, the
// normalization behind the paper's Figure 3 observation that both systems
// converge to "one fragment per 64KB".
func (r Report) FragmentsPer64KB() float64 {
	if r.TotalBytes == 0 {
		return 0
	}
	return float64(r.TotalFragments) / (float64(r.TotalBytes) / 65536.0)
}

func (r Report) String() string {
	return fmt.Sprintf("%d objects, %.2f fragments/object (max %d)",
		r.Objects, r.MeanFragments(), r.MaxFragments)
}

// Source enumerates objects and their extent runs. Both storage engines
// satisfy this through small adapters in package core.
type Source interface {
	// EachObjectRuns calls fn once per live object with the object's
	// logically ordered cluster runs.
	EachObjectRuns(fn func(key string, bytes int64, runs []extent.Run))
}

// Analyze builds a fragmentation report from an engine's extent lists.
func Analyze(src Source) Report {
	var rep Report
	src.EachObjectRuns(func(key string, bytes int64, runs []extent.Run) {
		f := CountRunFragments(runs)
		rep.Objects++
		rep.TotalFragments += f
		rep.TotalBytes += bytes
		if f > rep.MaxFragments {
			rep.MaxFragments = f
		}
		rep.PerObject = append(rep.PerObject, ObjectReport{Key: key, Bytes: bytes, Fragments: f})
	})
	sort.Slice(rep.PerObject, func(i, j int) bool { return rep.PerObject[i].Key < rep.PerObject[j].Key })
	return rep
}

// ScanMarkers reconstructs per-object fragment counts from the drive's
// owner map alone, with no knowledge of engine metadata — the external
// measurement path. It returns fragment counts keyed by owner tag.
//
// A fragment boundary exists wherever the next marker in an object's
// sequence is not physically adjacent to the previous one.
func ScanMarkers(d *disk.Drive) (map[uint32]int, error) {
	if !d.HasOwnerMap() {
		return nil, fmt.Errorf("frag: drive has no owner map (build it with disk.WithOwnerMap or blob.WithOwnerMap)")
	}
	type marker struct {
		seq     uint32
		cluster int64
	}
	byTag := make(map[uint32][]marker)
	clusters := d.Geometry().Clusters
	for c := int64(0); c < clusters; c++ {
		tag, seq := d.Owner(c)
		if tag == 0 {
			continue
		}
		byTag[tag] = append(byTag[tag], marker{seq: seq, cluster: c})
	}
	out := make(map[uint32]int, len(byTag))
	for tag, ms := range byTag {
		sort.Slice(ms, func(i, j int) bool { return ms[i].seq < ms[j].seq })
		frags := 0
		for i, m := range ms {
			if i == 0 || ms[i-1].cluster+1 != m.cluster {
				frags++
			}
		}
		out[tag] = frags
	}
	return out, nil
}

// TagSource additionally exposes each object's owner tag so marker-scan
// results can be cross-validated against extent lists.
type TagSource interface {
	Source
	// EachObjectTag calls fn once per live object with its owner tag.
	EachObjectTag(fn func(key string, tag uint32))
}

// CrossValidate compares the marker-scan fragment counts with the extent
// list analysis and returns the keys that disagree (empty means the two
// measurements match, the property the paper established for its tool).
// Every live object carries a tag of its own, so a tag several keys
// share is reported, never skipped.
func CrossValidate(d *disk.Drive, src TagSource) ([]string, error) {
	scanned, err := ScanMarkers(d)
	if err != nil {
		return nil, err
	}
	fromRuns := make(map[string]int)
	src.EachObjectRuns(func(key string, _ int64, runs []extent.Run) {
		fromRuns[key] = CountRunFragments(runs)
	})
	keys := make(map[uint32][]string)
	src.EachObjectTag(func(key string, tag uint32) {
		keys[tag] = append(keys[tag], key)
	})
	var bad []string
	for tag, ks := range keys {
		if len(ks) > 1 {
			sort.Strings(ks)
			bad = append(bad, fmt.Sprintf("tag %d %v: shared by several objects", tag, ks))
		} else if got, want := scanned[tag], fromRuns[ks[0]]; got != want {
			bad = append(bad, fmt.Sprintf("%s: scan=%d runs=%d", ks[0], got, want))
		}
	}
	sort.Strings(bad)
	return bad, nil
}

// RunLengthHistogram buckets a volume's free (or used) run lengths by
// powers of two; bucket i counts runs with length in [2^i, 2^(i+1)).
// Useful for the layoutmap tool and for reasoning about the run cache's
// steady state.
func RunLengthHistogram(runs []extent.Run) []int {
	var hist []int
	for _, r := range runs {
		b := 0
		for l := r.Len; l > 1; l >>= 1 {
			b++
		}
		for len(hist) <= b {
			hist = append(hist, 0)
		}
		hist[b]++
	}
	return hist
}
