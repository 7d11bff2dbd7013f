package obs

import (
	"math"
	"testing"
)

func snapOf(obsv ...func(*Registry)) Snapshot {
	r := NewRegistry()
	for _, f := range obsv {
		f(r)
	}
	return r.Snapshot()
}

func TestMergeSnapshotsCountersAndGauges(t *testing.T) {
	a := snapOf(func(r *Registry) {
		r.countKindN(ScanRetry, 1)
		r.countKindN(ScanRetry, 1)
		r.GaugeMax(GaugeMaxRound, 5)
	})
	b := snapOf(func(r *Registry) {
		r.countKindN(ScanRetry, 1)
		r.countKindN(WalkStep, 1)
		r.GaugeMax(GaugeMaxRound, 3)
	})
	m := MergeSnapshots(a, b)
	if m.Counters[ScanRetry.ID()] != 3 {
		t.Errorf("merged scan.retry = %d, want 3", m.Counters[ScanRetry.ID()])
	}
	if m.Counters[WalkStep.ID()] != 1 {
		t.Errorf("merged walk.step = %d, want 1", m.Counters[WalkStep.ID()])
	}
	if m.Gauges[GaugeMaxRound.String()] != 5 {
		t.Errorf("merged max_round = %d, want 5 (gauges take the max)", m.Gauges[GaugeMaxRound.String()])
	}
}

// TestMergeSnapshotsGroupingIndependent is the property batch merging relies
// on: merging independent snapshots must give the same result in any order
// or grouping.
func TestMergeSnapshotsGroupingIndependent(t *testing.T) {
	mk := func(vals ...int64) Snapshot {
		return snapOf(func(r *Registry) {
			for _, v := range vals {
				r.Hist(HistStepsToDecide).Observe(v)
				r.countKindN(CoreDecide, 1)
			}
		})
	}
	a, b, c := mk(10, 200), mk(3000), mk(45, 70_000, 12)

	flat := MergeSnapshots(a, b, c)
	nested := MergeSnapshots(MergeSnapshots(a, b), c)
	reversed := MergeSnapshots(c, b, a)

	for _, got := range []Snapshot{nested, reversed} {
		gh, fh := got.Hists[HistStepsToDecide.String()], flat.Hists[HistStepsToDecide.String()]
		if gh.Count != fh.Count || gh.Sum != fh.Sum || gh.Min != fh.Min || gh.Max != fh.Max ||
			gh.P50 != fh.P50 || gh.P90 != fh.P90 || gh.P99 != fh.P99 {
			t.Errorf("merge not grouping-independent: %+v vs %+v", gh, fh)
		}
		if got.Counters[CoreDecide.ID()] != flat.Counters[CoreDecide.ID()] {
			t.Errorf("counter merge not grouping-independent")
		}
	}
}

// TestMergeHistEqualsWhole merges two partial histograms and compares against
// one histogram that observed everything: exact aggregates must match, and
// percentiles must match because both sides share the registry bucket ladder.
func TestMergeHistEqualsWhole(t *testing.T) {
	vals := []int64{5, 80, 950, 12_000, 33, 7, 400_000, 88, 2}
	half1, half2, whole := NewRegistry(), NewRegistry(), NewRegistry()
	for i, v := range vals {
		whole.Hist(HistStepsToDecide).Observe(v)
		if i%2 == 0 {
			half1.Hist(HistStepsToDecide).Observe(v)
		} else {
			half2.Hist(HistStepsToDecide).Observe(v)
		}
	}
	m := MergeHistSnapshots(
		half1.Hist(HistStepsToDecide).Snapshot(),
		half2.Hist(HistStepsToDecide).Snapshot(),
	)
	w := whole.Hist(HistStepsToDecide).Snapshot()
	if m.Count != w.Count || m.Sum != w.Sum || m.Min != w.Min || m.Max != w.Max {
		t.Errorf("merged aggregates %+v differ from whole %+v", m, w)
	}
	if m.P50 != w.P50 || m.P90 != w.P90 || m.P99 != w.P99 {
		t.Errorf("merged percentiles (%.0f/%.0f/%.0f) differ from whole (%.0f/%.0f/%.0f)",
			m.P50, m.P90, m.P99, w.P50, w.P90, w.P99)
	}
	if len(m.Buckets) != len(w.Buckets) {
		t.Fatalf("merged bucket count %d, want %d", len(m.Buckets), len(w.Buckets))
	}
	for i := range m.Buckets {
		if m.Buckets[i] != w.Buckets[i] {
			t.Errorf("bucket %d: %+v vs %+v", i, m.Buckets[i], w.Buckets[i])
		}
	}
}

func TestMergeHistEmptySides(t *testing.T) {
	r := NewRegistry()
	r.Hist(HistScanRetries).Observe(4)
	s := r.Hist(HistScanRetries).Snapshot()
	if got := MergeHistSnapshots(HistSnapshot{}, s); got.Count != 1 || got.Sum != 4 {
		t.Errorf("empty left: got %+v", got)
	}
	if got := MergeHistSnapshots(s, HistSnapshot{}); got.Count != 1 || got.Sum != 4 {
		t.Errorf("empty right: got %+v", got)
	}
	if got := MergeHistSnapshots(HistSnapshot{}, HistSnapshot{}); got.Count != 0 {
		t.Errorf("both empty: got %+v", got)
	}
}

func TestMergeHistShapeMismatch(t *testing.T) {
	a := HistSnapshot{Count: 2, Sum: 6, Min: 1, Max: 5, Mean: 3,
		Buckets: []Bucket{{Le: 4, Count: 1}, {Le: math.MaxInt64, Count: 1}}}
	b := HistSnapshot{Count: 1, Sum: 9, Min: 9, Max: 9, Mean: 9,
		Buckets: []Bucket{{Le: 8, Count: 0}, {Le: math.MaxInt64, Count: 1}}}
	m := MergeHistSnapshots(a, b)
	if m.Count != 3 || m.Sum != 15 || m.Min != 1 || m.Max != 9 {
		t.Errorf("aggregates survive a shape mismatch: got %+v", m)
	}
	if m.Buckets != nil {
		t.Errorf("mismatched buckets should be dropped, got %v", m.Buckets)
	}
	if m.P50 != 1 || m.P99 != 9 {
		t.Errorf("degraded percentiles should be range endpoints, got p50=%v p99=%v", m.P50, m.P99)
	}
}
