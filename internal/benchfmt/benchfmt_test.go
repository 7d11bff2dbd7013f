package benchfmt

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/obs/tail"
)

func baseline() Report {
	return Report{
		Algorithm:       "bounded",
		N:               4,
		Instances:       400,
		Parallel:        4,
		Seed:            42,
		ElapsedSec:      1.5,
		InstancesPerSec: 266.7,
		Steps:           StepsSummary{Mean: 7000, Min: 220, P50: 4500, P90: 19000, P99: 32000, Max: 47000},
		Counters:        map[string]int64{"core.decide": 1600},
		Hists: map[string]obs.HistSnapshot{
			"phase.steps.prefer": {Count: 1600, Sum: 8_000_000, Mean: 5000},
			"phase.steps.coin":   {Count: 1600, Sum: 2_400_000, Mean: 1500},
			"phase.steps.strip":  {Count: 1600, Sum: 800_000, Mean: 500},
			"phase.steps.decide": {Count: 1600, Sum: 0, Mean: 0},
		},
	}
}

// latencyBaseline is baseline() extended with the tail-latency block: a
// measured latency summary, a straggler digest, and an environment stamp.
func latencyBaseline() Report {
	r := baseline()
	r.Latency = &tail.Summary{
		Count:  400,
		MeanNS: 1_200_000,
		MinNS:  200_000,
		P50NS:  900_000,
		P90NS:  2_500_000,
		P99NS:  6_000_000,
		P999NS: 9_000_000,
		MaxNS:  9_500_000,
	}
	r.Stragglers = []tail.Straggler{
		{Index: 17, Seed: -7489203, LatencyNS: 9_500_000, Steps: 44_000, Decision: 1},
		{Index: 3, Seed: 112233, LatencyNS: 8_100_000, Steps: 39_500, Decision: 0},
	}
	r.Env = &EnvStamp{GoVersion: "go1.22.1", GOMAXPROCS: 8, NumCPU: 8, OS: "linux", Arch: "amd64"}
	return r
}

// roundTrip writes r and decodes the JSON back.
func roundTrip(t *testing.T, r Report) (Report, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, r); err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	return got, buf.Bytes()
}

func TestReadWriteRoundTrip(t *testing.T) {
	r := baseline()
	r.Dropped = 12
	r.Derived = map[string]float64{"scan.retry_ratio": 1.36}
	got, _ := roundTrip(t, r)
	if got.Algorithm != r.Algorithm || got.Seed != r.Seed || got.Dropped != 12 {
		t.Errorf("round trip: got %+v", got)
	}
	if got.Hists["phase.steps.coin"].Sum != r.Hists["phase.steps.coin"].Sum {
		t.Errorf("hists did not survive the round trip")
	}
	if got.Derived["scan.retry_ratio"] != 1.36 {
		t.Errorf("derived map did not survive the round trip: %+v", got.Derived)
	}
}

// TestLatencyBlockRoundTrip pins the report schema: latency, stragglers and
// the env stamp survive the JSON round trip, and their absence decodes as nil.
func TestLatencyBlockRoundTrip(t *testing.T) {
	got, data := roundTrip(t, latencyBaseline())
	for _, want := range []string{`"latency"`, `"p99_ns"`, `"stragglers"`, `"env"`, `"go_version"`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("report missing %s:\n%s", want, data)
		}
	}
	if got.Latency == nil || got.Latency.P99NS != 6_000_000 || len(got.Stragglers) != 2 ||
		got.Stragglers[0].Seed != -7489203 || got.Env == nil || got.Env.GoVersion != "go1.22.1" {
		t.Errorf("tail blocks did not survive the round trip: %+v %+v %+v", got.Latency, got.Stragglers, got.Env)
	}

	got, data = roundTrip(t, baseline())
	for _, absent := range []string{`"latency"`, `"stragglers"`, `"env"`} {
		if bytes.Contains(data, []byte(absent)) {
			t.Errorf("unmetered report leaked %s:\n%s", absent, data)
		}
	}
	if got.Latency != nil || got.Stragglers != nil || got.Env != nil {
		t.Errorf("unmetered report decoded tail blocks: %+v %+v %+v", got.Latency, got.Stragglers, got.Env)
	}
}

func TestKeyIncludesNonDefaultSubstrate(t *testing.T) {
	r := baseline()
	if got := r.Key(); got != "bounded/n=4" {
		t.Errorf("Key() = %q, want bounded/n=4 (empty substrate is simulated)", got)
	}
	r.Substrate = "simulated"
	if got := r.Key(); got != "bounded/n=4" {
		t.Errorf("Key() = %q, want bounded/n=4 (explicit simulated is the default)", got)
	}
	r.Substrate = "native"
	if got := r.Key(); got != "bounded/n=4/native" {
		t.Errorf("Key() = %q, want bounded/n=4/native", got)
	}
}

func TestKeyIncludesKnobs(t *testing.T) {
	r := baseline()
	if got, want := r.Key(), "bounded/n=4"; got != want {
		t.Errorf("default-knob key = %q, want %q", got, want)
	}
	r.K, r.M = 3, 64
	if got, want := r.Key(), "bounded/n=4/K=3/M=64"; got != want {
		t.Errorf("knob key = %q, want %q", got, want)
	}
	r.Substrate = "native"
	if got, want := r.Key(), "bounded/n=4/K=3/M=64/native"; got != want {
		t.Errorf("knob+substrate key = %q, want %q", got, want)
	}
}

func TestSpaceFromUsage(t *testing.T) {
	u := space.Usage{
		Layers: map[string]space.LayerUsage{
			"walk": {Words: 12, DeclaredBits: 12, MeasuredBits: 5, MaxAbs: 9},
			"core": {Words: 12, DeclaredBits: space.UnboundedBits, MeasuredBits: 3, MaxAbs: 2},
		},
		Regs: 16, LiveRegs: 16, PeakWords: 56, MaxBits: 12,
	}
	s := SpaceFromUsage(u)
	if s.PeakRegs != 16 || s.PeakWords != 56 || s.MaxBits != 12 {
		t.Errorf("totals = %+v, want 16/56/12", s)
	}
	if s.LayerBits["walk"] != 12 {
		t.Errorf("walk layer bits = %d, want declared 12", s.LayerBits["walk"])
	}
	if s.LayerBits["core"] != 3 {
		t.Errorf("core layer bits = %d, want measured 3 (declared unbounded)", s.LayerBits["core"])
	}
}

func TestCurrentEnvIsPopulated(t *testing.T) {
	e := CurrentEnv()
	if e.GoVersion == "" || e.GOMAXPROCS <= 0 || e.NumCPU <= 0 || e.OS == "" || e.Arch == "" {
		t.Errorf("CurrentEnv() = %+v, want all fields populated", e)
	}
}
