package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	consensus "github.com/dsrepro/consensus"
	"github.com/dsrepro/consensus/internal/benchfmt"
	"github.com/dsrepro/consensus/internal/harness"
	"github.com/dsrepro/consensus/internal/obs/tail"
)

var updateTail = flag.Bool("update-tail", false, "regenerate the testdata/tail-*.{json,golden} files from the fixed report literals")

// tailGoldenReport is a fixed report behind the tail goldens. Real latency
// measurements jitter run to run, so the goldens lock the *rendering* of
// synthetic reports, not a live run: fixed quantiles, one straggler digest
// and a fixed environment stamp.
func tailGoldenReport() benchfmt.Report {
	return benchfmt.Report{
		Algorithm: "bounded",
		N:         4,
		Instances: 400,
		Parallel:  4,
		Seed:      42,
		Latency: &tail.Summary{
			Count:  400,
			MeanNS: 2_000_000,
			MinNS:  500_000,
			P50NS:  1_000_000,
			P90NS:  4_000_000,
			P99NS:  9_000_000,
			P999NS: 12_000_000,
			MaxNS:  13_000_000,
		},
		Stragglers: []tail.Straggler{
			{Index: 7, Seed: -1234567890123, LatencyNS: 13_000_000, Steps: 31_000, Decision: 1},
		},
		Env: &benchfmt.EnvStamp{GoVersion: "go1.22.1", GOMAXPROCS: 8, NumCPU: 8, OS: "linux", Arch: "amd64"},
	}
}

// TestTailGolden locks the -tail rendering end to end: each fixed report is
// written to its checked-in JSON file, read back through the -tail decoder
// and rendered byte-identically to its golden. The metered report renders
// its quantiles and digest; the unmetered one renders the no-latency note.
// Regenerate with:
//
//	go test ./cmd/traceview -run TestTailGolden -update-tail
func TestTailGolden(t *testing.T) {
	for _, c := range []struct {
		name   string
		report benchfmt.Report
	}{
		{"tail-bench", tailGoldenReport()},
		{"tail-unmetered", benchfmt.Report{Algorithm: "local-coin", N: 4, Instances: 50, Parallel: 4, Seed: 42}},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := "testdata/" + c.name + ".json"
			var art bytes.Buffer
			if err := benchfmt.Write(&art, c.report); err != nil {
				t.Fatal(err)
			}
			if *updateTail {
				if err := os.WriteFile(path, art.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(art.Bytes(), data) {
				t.Errorf("fixed report diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", path, art.Bytes(), data)
			}
			sum, r, err := parseTail(data)
			if err != nil || sum != nil {
				t.Fatalf("parseTail(%s) = %v, %v; want a report", path, sum, err)
			}
			var buf bytes.Buffer
			for _, tbl := range tailTables(path, r) {
				tbl.RenderAs(&buf, harness.FormatText)
			}
			golden := "testdata/" + c.name + ".golden"
			if *updateTail {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("%s and %s regenerated", path, golden)
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("rendered tail view diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, buf.Bytes(), want)
			}
		})
	}
}

// TestTailGoldenParsesFromDisk exercises the -tail input path on the
// checked-in report: the latency block, the straggler digest and the
// environment stamp must survive the round trip.
func TestTailGoldenParsesFromDisk(t *testing.T) {
	data, err := os.ReadFile("testdata/tail-bench.json")
	if err != nil {
		t.Fatal(err)
	}
	_, r, err := parseTail(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.Latency == nil || r.Latency.P99NS != 9_000_000 {
		t.Errorf("latency block did not survive: %+v", r.Latency)
	}
	if len(r.Stragglers) != 1 || r.Stragglers[0].Seed != -1234567890123 {
		t.Errorf("straggler digest did not survive: %+v", r.Stragglers)
	}
	if r.Env == nil || r.Env.GoVersion != "go1.22.1" {
		t.Errorf("env stamp did not survive: %+v", r.Env)
	}
}

// TestTailRefusesOtherJSON: -tail reads one report or one bundle summary. A
// file of the multi-workload shape that older reports had, a space usage
// snapshot and a bare array are refused with an error naming both accepted
// shapes, instead of rendering an empty table.
func TestTailRefusesOtherJSON(t *testing.T) {
	space, err := os.ReadFile("testdata/space-n4.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"workloads", []byte(`{"workloads": [{"algorithm": "bounded", "n": 4, "instances": 400}]}`)},
		{"space-usage", space},
		{"array", []byte(`[{"algorithm": "bounded"}]`)},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := parseTail(c.data)
			if err == nil || !strings.Contains(err.Error(), "consensus-load -json report") ||
				!strings.Contains(err.Error(), "summary.json") {
				t.Errorf("parseTail = %v, want an error naming both accepted shapes", err)
			}
		})
	}
}

// TestTailSummaryTable renders a real straggler bundle's summary.json through
// the -tail summary path: replay a straggler from a small fixed-seed batch
// and check the rendered table names the replay fingerprint.
func TestTailSummaryTable(t *testing.T) {
	base := consensus.Config{
		Inputs:   []int{0, 1, 0, 1},
		Schedule: consensus.Schedule{Kind: consensus.RandomSchedule},
		Latency:  true,
	}
	res, err := consensus.SolveBatch(consensus.BatchConfig{
		Instances:  8,
		Base:       base,
		Seed:       42,
		Stragglers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stragglers) != 1 {
		t.Fatalf("got %d stragglers, want 1", len(res.Stragglers))
	}
	dir := filepath.Join(t.TempDir(), "bundle")
	b, err := consensus.ReplayStraggler(base, res.Stragglers[0], dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(b.SummaryPath)
	if err != nil {
		t.Fatal(err)
	}
	sum, _, err := parseTail(data)
	if err != nil || sum == nil {
		t.Fatalf("parseTail(%s) = %v, %v; want a bundle summary", b.SummaryPath, sum, err)
	}
	var buf bytes.Buffer
	summaryTable(b.SummaryPath, sum).RenderAs(&buf, harness.FormatText)
	out := buf.String()
	for _, want := range []string{"bounded/n=4", "replay steps", "steps scan-retry", "audit violations"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("summary table missing %q:\n%s", want, out)
		}
	}
}
