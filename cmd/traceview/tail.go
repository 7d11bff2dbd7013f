package main

import (
	"encoding/json"
	"fmt"
	"os"

	consensus "github.com/dsrepro/consensus"
	"github.com/dsrepro/consensus/internal/benchfmt"
	"github.com/dsrepro/consensus/internal/harness"
)

// runTail renders the tail-latency view of one consensus-load -json report:
// the workload's wall-clock quantiles, its straggler digest, and the
// environment stamp the numbers were measured under. It also accepts a
// straggler bundle's summary.json (consensus-load -straggler-replay) and
// renders the replay verdict and blame digest instead.
func runTail(path string, format harness.Format) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %v\n", err)
		return 1
	}
	sum, r, err := parseTail(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %s: %v\n", path, err)
		return 1
	}
	if sum != nil {
		summaryTable(path, sum).RenderAs(os.Stdout, format)
		return 0
	}
	for _, t := range tailTables(path, r) {
		t.RenderAs(os.Stdout, format)
	}
	return 0
}

// tailShapes names the two inputs -tail accepts.
const tailShapes = "a consensus-load -json report or a straggler bundle's summary.json"

// parseTail decodes a -tail input: a bundle summary, which carries a
// "straggler" object, or a report, which carries its workload's "algorithm".
// Any other JSON is refused.
func parseTail(data []byte) (map[string]any, benchfmt.Report, error) {
	var probe struct {
		Straggler json.RawMessage `json:"straggler"`
		Algorithm string          `json:"algorithm"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, benchfmt.Report{}, fmt.Errorf("want %s: %w", tailShapes, err)
	}
	var r benchfmt.Report
	switch {
	case probe.Straggler != nil:
		sum, err := consensus.ParseStragglerSummary(data)
		return sum, r, err
	case probe.Algorithm != "":
		err := json.Unmarshal(data, &r)
		return nil, r, err
	}
	return nil, r, fmt.Errorf("want %s; this JSON has neither a \"straggler\" object nor an \"algorithm\"", tailShapes)
}

// tailTables builds the tail view of a report: the latency-quantile table and
// the straggler digest table.
func tailTables(name string, r benchfmt.Report) []*harness.Table {
	lt := &harness.Table{
		Title:   fmt.Sprintf("%s: wall-clock latency per workload", name),
		Columns: []string{"workload", "count", "mean", "p50", "p90", "p99", "p999", "max"},
	}
	lt.Note("wall-clock values jitter run to run.")
	if l := r.Latency; l != nil && l.Count > 0 {
		lt.Add(r.Key(), l.Count, msCell(int64(l.MeanNS)), msCell(l.P50NS), msCell(l.P90NS),
			msCell(l.P99NS), msCell(l.P999NS), msCell(l.MaxNS))
	} else {
		lt.Note("the report carries no latency block (run without -latency).")
	}
	if e := r.Env; e != nil {
		lt.Note(fmt.Sprintf("measured on %s %s/%s, GOMAXPROCS %d, %d CPUs", e.GoVersion, e.OS, e.Arch, e.GOMAXPROCS, e.NumCPU))
	}
	out := []*harness.Table{lt}
	if len(r.Stragglers) == 0 {
		return out
	}
	st := &harness.Table{
		Title:   fmt.Sprintf("%s: straggler digests", name),
		Columns: []string{"workload", "inst", "latency", "steps", "decision", "seed"},
	}
	for _, s := range r.Stragglers {
		st.Add(r.Key(), s.Index, msCell(s.LatencyNS), s.Steps, s.Decision, s.Seed)
	}
	st.Note("each digest replays deterministically: consensus-load -stragglers N -straggler-replay.")
	return append(out, st)
}

// summaryTable renders one straggler bundle's summary.json (already parsed
// and verified by ParseStragglerSummary) as an attribute table.
func summaryTable(name string, sum map[string]any) *harness.Table {
	t := &harness.Table{
		Title:   fmt.Sprintf("%s: straggler replay", name),
		Columns: []string{"what", "value"},
	}
	num := func(key string) int64 { return sumInt(sum[key]) }
	str := func(key string) string {
		v, _ := sum[key].(string)
		return v
	}
	t.Add("workload", fmt.Sprintf("%s/n=%d (%s schedule)", str("algorithm"), num("n"), str("schedule")))
	if s, ok := sum["straggler"].(map[string]any); ok {
		t.Add("instance", sumInt(s["index"]))
		t.Add("seed", sumInt(s["seed"]))
		t.Add("original latency", msCell(sumInt(s["latency_ns"])))
	}
	t.Add("replay latency", msCell(num("replay_latency_ns")))
	t.Add("replay steps", num("replay_steps"))
	t.Add("replay decision", num("replay_decision"))
	t.Add("steps productive", num("steps_productive"))
	t.Add("steps scan-retry", num("steps_scan_retry"))
	t.Add("steps coin-spin", num("steps_coin_spin"))
	t.Add("steps strip-wait", num("steps_strip_wait"))
	if num("blame_retries") > 0 {
		t.Add("worst blame pair", fmt.Sprintf("scanner %d <- writer %d (%d retries)",
			num("blame_scanner"), num("blame_writer"), num("blame_retries")))
	}
	if num("hot_register_hits") > 0 {
		t.Add("hot register", fmt.Sprintf("r%d (%d hits)", num("hot_register"), num("hot_register_hits")))
	}
	t.Add("audit violations", num("audit_violations"))
	t.Note("replay latency is measured under full instrumentation and is expected to exceed the original; steps and decision are the deterministic fingerprint.")
	return t
}

// sumInt reads one numeric value of a parsed straggler summary. The parser
// keeps numbers as json.Number (seeds are full-range int64s, which float64
// would corrupt past 2^53); float64 is accepted for any hand-built map.
func sumInt(v any) int64 {
	switch x := v.(type) {
	case json.Number:
		n, err := x.Int64()
		if err != nil {
			f, _ := x.Float64()
			return int64(f)
		}
		return n
	case float64:
		return int64(x)
	}
	return 0
}

// msCell renders a nanosecond latency as milliseconds.
func msCell(ns int64) string { return fmt.Sprintf("%.2fms", float64(ns)/1e6) }
