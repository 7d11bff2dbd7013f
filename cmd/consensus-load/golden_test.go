package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	consensus "github.com/dsrepro/consensus"
	"github.com/dsrepro/consensus/internal/benchfmt"
	"github.com/dsrepro/consensus/internal/obs"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/workloads.golden from the current tree")

const workloadGoldens = "testdata/workloads.golden"

// workloadRows are the golden's workloads: the bounded and Aspnes–Herlihy
// protocols at n = 4 to 32, commuting dispatch at n ≤ 16, the K and M
// frontier, and the anonymous variant. Native runs are not deterministic, so
// none is here, and a commuting batch at n=32 takes over 10 s.
var workloadRows = []workloadSpec{
	{Alg: "bounded", N: 4, Instances: 400},
	{Alg: "bounded", N: 8, Instances: 60},
	{Alg: "bounded", N: 16, Instances: 12},
	{Alg: "bounded", N: 32, Instances: 4},
	{Alg: "aspnes-herlihy", N: 4, Instances: 200},
	{Alg: "aspnes-herlihy", N: 8, Instances: 40},
	{Alg: "aspnes-herlihy", N: 16, Instances: 8},
	{Alg: "aspnes-herlihy", N: 32, Instances: 4},
	{Alg: "bounded", N: 8, Instances: 200, Dispatch: "commuting"},
	{Alg: "bounded", N: 16, Instances: 40, Dispatch: "commuting"},
	{Alg: "aspnes-herlihy", N: 8, Instances: 200, Dispatch: "commuting"},
	{Alg: "bounded", N: 4, Instances: 200, K: 3},
	{Alg: "bounded", N: 4, Instances: 200, K: 4},
	{Alg: "bounded", N: 4, Instances: 200, M: 64},
	{Alg: "bounded", N: 8, Instances: 40, M: 64},
	{Alg: "anonymous", N: 4, Instances: 400},
	{Alg: "anonymous", N: 8, Instances: 100},
}

// goldenOpts runs every row with seed 42 under the random schedule, B=4, a
// 100M step budget and latency metering, on one worker per CPU; runWorkload
// meters space on every row. The line does not depend on the worker count.
var goldenOpts = workloadOpts{
	schedule: consensus.Schedule{Kind: consensus.RandomSchedule},
	seed:     42,
	maxSteps: 100_000_000,
	b:        4,
	latency:  true,
}

// workloadLine renders a workload's golden line: the workload key, the
// instance and error counts, the steps summary, the phase means, the scan
// retry ratio, the space block, a hash of every counter, gauge and histogram
// outside lat.* (histograms by their integer fields, which determine the
// rest) and a hash of the per-instance (steps, decision) sequence.
func workloadLine(r benchfmt.Report, res consensus.BatchResult) string {
	var b strings.Builder
	s := r.Steps
	fmt.Fprintf(&b, "%s instances=%d errors=%d steps=mean:%s,min:%d,p50:%d,p90:%d,p99:%d,max:%d phases=",
		r.Key(), r.Instances, r.Errors, exact(s.Mean), s.Min, s.P50, s.P90, s.P99, s.Max)
	for ph := obs.PhaseID(0); ph < obs.NumPhases; ph++ {
		if ph > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%s", ph, exact(r.Hists[ph.HistID().String()].Mean))
	}
	retry := "-"
	if v, ok := r.Derived["scan.retry_ratio"]; ok {
		retry = exact(v)
	}
	space, _ := json.Marshal(r.Space) // integers and a map of them: it cannot fail
	fmt.Fprintf(&b, " retry_ratio=%s space=%s metrics=%s runs=%s", retry, space, metricsHash(r), runsHash(res))
	return b.String()
}

// exact renders a float with the fewest digits that read back as the same
// value.
func exact(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func metricsHash(r benchfmt.Report) string {
	h := sha256.New()
	for _, k := range sortedNames(r.Counters) {
		fmt.Fprintf(h, "counter %s %d\n", k, r.Counters[k])
	}
	for _, k := range sortedNames(r.Gauges) {
		fmt.Fprintf(h, "gauge %s %d\n", k, r.Gauges[k])
	}
	for _, k := range sortedNames(r.Hists) {
		x := r.Hists[k]
		fmt.Fprintf(h, "hist %s count=%d sum=%d min=%d max=%d buckets=%v\n", k, x.Count, x.Sum, x.Min, x.Max, x.Buckets)
	}
	return shortSum(h)
}

func runsHash(res consensus.BatchResult) string {
	h := sha256.New()
	for k, steps := range res.Steps {
		fmt.Fprintf(h, "%d %d\n", steps, res.Decisions[k])
	}
	return shortSum(h)
}

func shortSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

// sortedNames returns m's keys outside the lat.* family, which measures wall
// clock, in order.
func sortedNames[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		if !strings.HasPrefix(k, "lat.") {
			ks = append(ks, k)
		}
	}
	sort.Strings(ks)
	return ks
}

// TestWorkloadGoldens pins each workload's step distribution, phase means,
// space block and merged metrics to testdata/workloads.golden. Each row is a
// subtest that checks its own line; under -short the rows above n=8 skip.
// The file's line count and order are checked only when every row ran.
// Regenerate with:
//
//	go test ./cmd/consensus-load -run TestWorkloadGoldens -update
func TestWorkloadGoldens(t *testing.T) {
	var wantLines []string
	want := map[string]string{}
	if !*updateGoldens {
		b, err := os.ReadFile(workloadGoldens)
		if err != nil {
			t.Fatalf("%v (generate with -update)", err)
		}
		wantLines = strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
		for _, l := range wantLines {
			want[lineKey(l)] = l
		}
	}
	var lines []string
	ran := 0
	for _, ws := range workloadRows {
		key := benchfmt.Report{Algorithm: ws.Alg, N: ws.N, K: ws.K, M: ws.M, Dispatch: ws.Dispatch}.Key()
		t.Run(key, func(t *testing.T) {
			if testing.Short() && ws.N > 8 {
				t.Skipf("-short skips the rows above n=8: %s", key)
			}
			ran++
			r, res, _, code := runWorkload(ws, goldenOpts, nil)
			if code != 0 {
				t.Fatalf("runWorkload(%+v) code = %d", ws, code)
			}
			l := workloadLine(r, res)
			lines = append(lines, l)
			if w, ok := want[key]; !ok && !*updateGoldens {
				t.Errorf("no golden line for %s", key)
			} else if ok && l != w {
				t.Errorf("workload moved:\n got  %s\n want %s", l, w)
			}
		})
	}
	if ran < len(workloadRows) {
		if *updateGoldens {
			t.Fatal("-update rewrites the whole file: run every row, without -short")
		}
		return
	}
	if *updateGoldens {
		if t.Failed() {
			return
		}
		if err := os.WriteFile(workloadGoldens, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s rewritten (%d lines)", workloadGoldens, len(lines))
		return
	}
	if len(lines) != len(wantLines) {
		t.Errorf("golden has %d lines, the rows %d", len(wantLines), len(lines))
	}
	for i := 0; i < len(lines) && i < len(wantLines); i++ {
		if lineKey(lines[i]) != lineKey(wantLines[i]) {
			t.Errorf("line %d: the rows run %s, the golden %s (rows added, dropped or reordered)",
				i+1, lineKey(lines[i]), lineKey(wantLines[i]))
			break
		}
	}
}

// lineKey is the workload a golden line pins: its first field.
func lineKey(line string) string {
	key, _, _ := strings.Cut(line, " ")
	return key
}
