package obs

import (
	"strings"
	"testing"
)

func TestRegistryCounters(t *testing.T) {
	r := NewRegistry()
	r.countKindN(ScanRetry, 1)
	r.countKindN(ScanRetry, 1)
	r.countKindN(ScanClean, 1)
	r.countKindN(CoreDecide, 1)
	if c := r.KindCount(ScanRetry); c != 2 {
		t.Fatalf("ScanRetry = %d, want 2", c)
	}
	if c := r.LayerCount(LayerScan); c != 3 {
		t.Fatalf("scan layer = %d, want 3", c)
	}
	if c := r.LayerCount(LayerWalk); c != 0 {
		t.Fatalf("walk layer = %d, want 0", c)
	}
}

func TestRegistryGaugeMax(t *testing.T) {
	r := NewRegistry()
	r.GaugeMax(GaugeMaxAbsCoin, 5)
	r.GaugeMax(GaugeMaxAbsCoin, 3) // smaller: ignored
	r.GaugeMax(GaugeMaxAbsCoin, 9)
	if g := r.Gauge(GaugeMaxAbsCoin); g != 9 {
		t.Fatalf("gauge = %d, want 9", g)
	}
}

func TestSnapshotOmitsZeros(t *testing.T) {
	r := NewRegistry()
	r.countKindN(WalkStep, 1)
	r.GaugeMax(GaugeMaxRound, 4)
	r.Hist(HistScanRetries).Observe(1)
	s := r.Snapshot()
	if len(s.Counters) != 1 || s.Counters["walk.step"] != 1 {
		t.Fatalf("Counters = %v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges["core.max_round"] != 4 {
		t.Fatalf("Gauges = %v", s.Gauges)
	}
	if len(s.Hists) != 1 {
		t.Fatalf("Hists = %v", s.Hists)
	}
	if _, ok := s.Hists["scan.retries_per_scan"]; !ok {
		t.Fatalf("histogram key missing: %v", s.Hists)
	}
}

func TestSnapshotLayerCounts(t *testing.T) {
	r := NewRegistry()
	r.countKindN(RegSWMRRead, 1)
	r.countKindN(RegSWMRWrite, 1)
	r.countKindN(Reg2WRead, 1)
	r.countKindN(CoreDecide, 1)
	lc := r.Snapshot().LayerCounts()
	if lc["register"] != 3 || lc["core"] != 1 {
		t.Fatalf("LayerCounts = %v", lc)
	}
}

func TestKindWireIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range Kinds() {
		id := k.ID()
		if seen[id] {
			t.Errorf("duplicate wire id %q", id)
		}
		seen[id] = true
		// Every wire id is "<layer>.<rest>" so LayerCounts can aggregate by
		// prefix and traces group naturally.
		if prefix := k.Layer().String() + "."; !strings.HasPrefix(id, prefix) {
			t.Errorf("kind %v id %q does not start with its layer prefix %q", k, id, prefix)
		}
		got, ok := KindForID(id)
		if !ok || got != k {
			t.Errorf("KindForID(%q) = %v,%v want %v", id, got, ok, k)
		}
	}
}

func TestHistIDs(t *testing.T) {
	r := NewRegistry()
	if r.Hist(HistScanRetries) == nil || r.Hist(HistStepsToDecide) == nil {
		t.Fatal("standard histograms not installed")
	}
	if r.Hist(numHists) != nil {
		t.Fatal("out-of-range hist id returned a histogram")
	}
}
