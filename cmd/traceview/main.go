// Command traceview summarises a JSONL trace produced by
// consensus-sim -trace-out (or by consensus.Config.TraceJSONL directly).
//
// It renders per-layer and per-kind event counts, the steps each process
// took to decide, a per-phase step attribution table, and a scan-retry
// histogram:
//
//	consensus-sim -inputs 0,1,1,0 -trace-out run.jsonl
//	traceview run.jsonl
//	traceview -format markdown run.jsonl
//	traceview -phase coin run.jsonl   # plus a per-process table for one phase
//	traceview -audit run.jsonl        # only the invariant-audit tables
//
// Traces from audited runs (consensus-sim -audit) carry audit-layer events;
// traceview summarises the violations by probe and lists the flight dumps.
// It also reads the JSONL tail of a flight-dump file directly.
//
// Profiles from consensus-sim -prof-json are a different artifact (step
// classes, blame matrix, critical path — not an event stream) and get their
// own modes:
//
//	consensus-sim -inputs 0,1,1,0 -prof-json run.prof.json
//	traceview -prof run.prof.json        # blame matrix, contention, critical path
//	traceview -perfetto run.trace.json   # validate + summarise a Perfetto export
//
// Space usage snapshots from consensus-sim -space-json are a third artifact
// (per-layer register/word/width accounting, see internal/obs/space):
//
//	consensus-sim -inputs 0,1,1,0 -space-json run.space.json
//	traceview -space run.space.json      # per-layer accounting + totals
//
// A consensus-load -json report (see internal/benchfmt) has a tail-latency
// view — the workload's wall-clock quantiles, straggler digest and
// environment stamp — which also reads a straggler bundle's summary.json:
//
//	consensus-load -instances 400 -stragglers 3 -json > report.json
//	traceview -tail report.json
//	traceview -tail stragglers/bounded-n4-i40/summary.json
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"github.com/dsrepro/consensus/internal/harness"
	"github.com/dsrepro/consensus/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	formatFlag := flag.String("format", "text", "output format: text | markdown | csv")
	phaseFlag := flag.String("phase", "", "also render a per-process breakdown of one phase: prefer | coin | strip | decide")
	auditFlag := flag.Bool("audit", false, "render only the invariant-audit tables (violations by probe, flight dumps)")
	profFlag := flag.String("prof", "", "render a profile JSON (consensus-sim -prof-json): step classes, blame matrix, contention, critical path")
	perfettoFlag := flag.String("perfetto", "", "validate and summarise a Perfetto export (consensus-sim -prof-out)")
	spaceFlag := flag.String("space", "", "render a space usage snapshot (consensus-sim -space-json): per-layer register/word/width accounting")
	tailFlag := flag.String("tail", "", "render the tail-latency view of one consensus-load -json report: latency quantiles, straggler digest, environment stamp; also accepts a straggler bundle's summary.json")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: traceview [-format text|markdown|csv] [-phase name] [-audit] trace.jsonl\n")
		fmt.Fprintf(os.Stderr, "       traceview [-format ...] -prof profile.json | -perfetto trace.json | -space usage.json | -tail report.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	format, err := harness.ParseFormat(*formatFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %v\n", err)
		return 2
	}
	if *profFlag != "" {
		return runProf(*profFlag, format)
	}
	if *spaceFlag != "" {
		return runSpace(*spaceFlag, format)
	}
	if *tailFlag != "" {
		return runTail(*tailFlag, format)
	}
	if *perfettoFlag != "" {
		return runPerfetto(*perfettoFlag, format)
	}
	if *phaseFlag != "" {
		if _, ok := obs.PhaseForName(*phaseFlag); !ok {
			fmt.Fprintf(os.Stderr, "traceview: unknown phase %q (want prefer | coin | strip | decide)\n", *phaseFlag)
			return 2
		}
	}
	if flag.NArg() != 1 {
		flag.Usage()
		return 2
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %v\n", err)
		return 1
	}
	events, err := obs.ReadJSONL(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %v\n", err)
		return 1
	}
	if len(events) == 0 {
		fmt.Fprintln(os.Stderr, "traceview: trace is empty")
		return 1
	}
	if *auditFlag {
		for _, t := range auditTables(flag.Arg(0), events) {
			t.RenderAs(os.Stdout, format)
		}
		return 0
	}
	for _, t := range summarise(flag.Arg(0), events, *phaseFlag) {
		t.RenderAs(os.Stdout, format)
	}
	return 0
}

// auditTables summarises the audit-layer events of a trace: violations
// grouped by probe with first/last firing step, and the flight dumps
// produced. Returns a single empty-notice table when the trace has none.
func auditTables(name string, events []Event) []*harness.Table {
	type probeAgg struct {
		count       int64
		first, last int64
	}
	probes := map[string]*probeAgg{}
	var order []string
	var dumps []Event
	for _, e := range events {
		switch e.Kind {
		case obs.AuditViolation:
			probe := e.Detail
			if p, _, ok := strings.Cut(e.Detail, ":"); ok {
				probe = p
			}
			a := probes[probe]
			if a == nil {
				a = &probeAgg{first: e.Step}
				probes[probe] = a
				order = append(order, probe)
			}
			a.count++
			a.last = e.Step
		case obs.FlightDump:
			dumps = append(dumps, e)
		}
	}
	vt := &harness.Table{
		Title:   fmt.Sprintf("%s: invariant violations by probe", name),
		Columns: []string{"probe", "violations", "first step", "last step"},
	}
	sort.Strings(order)
	for _, probe := range order {
		a := probes[probe]
		vt.Add(probe, a.count, a.first, a.last)
	}
	if len(order) == 0 {
		vt.Note("no audit violations in this trace.")
	}
	tables := []*harness.Table{vt}
	if len(dumps) > 0 {
		dt := &harness.Table{
			Title:   fmt.Sprintf("%s: flight dumps", name),
			Columns: []string{"step", "process", "events", "dump"},
		}
		for _, e := range dumps {
			dt.Add(e.Step, fmt.Sprintf("p%d", e.Pid), e.Value, e.Detail)
		}
		dt.Note("replay a dump file with: go run ./cmd/consensus-audit <dump>")
		tables = append(tables, dt)
	}
	return tables
}

// summarise builds the analysis tables from a decoded event stream. phase, if
// non-empty, must be a valid phase label and adds that phase's per-process
// breakdown.
func summarise(name string, events []Event, phase string) []*harness.Table {
	var tables []*harness.Table

	// Per-layer totals, in stack order (register at the bottom, core on top).
	layerCounts := map[obs.Layer]int64{}
	kindCounts := map[obs.Kind]int64{}
	lastStep := int64(0)
	for _, e := range events {
		layerCounts[e.Kind.Layer()]++
		kindCounts[e.Kind]++
		if e.Step > lastStep {
			lastStep = e.Step
		}
	}
	lt := &harness.Table{
		Title:   fmt.Sprintf("%s: events per layer (%d events over %d steps)", name, len(events), lastStep),
		Columns: []string{"layer", "events", "share"},
	}
	for _, l := range []obs.Layer{obs.LayerRegister, obs.LayerScan, obs.LayerWalk, obs.LayerStrip, obs.LayerSched, obs.LayerCore, obs.LayerPhase, obs.LayerAudit, obs.LayerObs} {
		if c, ok := layerCounts[l]; ok {
			lt.Add(l.String(), c, fmt.Sprintf("%.1f%%", 100*float64(c)/float64(len(events))))
		}
	}
	tables = append(tables, lt)

	kt := &harness.Table{
		Title:   fmt.Sprintf("%s: events per kind", name),
		Columns: []string{"kind", "events"},
	}
	for _, k := range obs.Kinds() {
		if c, ok := kindCounts[k]; ok {
			kt.Add(k.ID(), c)
		}
	}
	tables = append(tables, kt)

	// Steps to decide, per process: the Step field of each CoreDecide event.
	decided := map[int]int64{}
	started := map[int]bool{}
	for _, e := range events {
		switch e.Kind {
		case obs.CoreStart:
			started[e.Pid] = true
		case obs.CoreDecide:
			if _, ok := decided[e.Pid]; !ok {
				decided[e.Pid] = e.Step
			}
		}
	}
	if len(started) > 0 || len(decided) > 0 {
		pids := make([]int, 0, len(started))
		for p := range started {
			pids = append(pids, p)
		}
		for p := range decided {
			if !started[p] {
				pids = append(pids, p)
			}
		}
		sort.Ints(pids)
		dt := &harness.Table{
			Title:   fmt.Sprintf("%s: steps to decide per process", name),
			Columns: []string{"process", "decided at step"},
		}
		for _, p := range pids {
			if s, ok := decided[p]; ok {
				dt.Add(fmt.Sprintf("p%d", p), s)
			} else {
				dt.Add(fmt.Sprintf("p%d", p), "UNDECIDED")
			}
		}
		dt.Note("steps are global scheduler steps, so later deciders include every process's work.")
		tables = append(tables, dt)
	}

	// Phase attribution: each phase-layer span event carries the atomic steps
	// of one closed phase segment in Value.
	var spanCounts, spanSteps [obs.NumPhases]int64
	var phaseTotal int64
	for _, e := range events {
		if ph, ok := obs.PhaseForSpanKind(e.Kind); ok {
			spanCounts[ph]++
			spanSteps[ph] += e.Value
			phaseTotal += e.Value
		}
	}
	if phaseTotal > 0 {
		pt := &harness.Table{
			Title:   fmt.Sprintf("%s: steps per phase (%d attributed steps)", name, phaseTotal),
			Columns: []string{"phase", "spans", "steps", "share", "steps/span"},
		}
		for ph := obs.PhaseID(0); ph < obs.NumPhases; ph++ {
			if spanCounts[ph] == 0 {
				continue
			}
			pt.Add(ph.String(), spanCounts[ph], spanSteps[ph],
				fmt.Sprintf("%.1f%%", 100*float64(spanSteps[ph])/float64(phaseTotal)),
				fmt.Sprintf("%.1f", float64(spanSteps[ph])/float64(spanCounts[ph])))
		}
		pt.Note("prefer = agreement work, coin = randomness, strip = round advance, decide = decision publication.")
		tables = append(tables, pt)
	}

	// Optional per-process breakdown of one phase.
	if ph, ok := obs.PhaseForName(phase); ok && phase != "" {
		perSpans := map[int]int64{}
		perSteps := map[int]int64{}
		for _, e := range events {
			if e.Kind == ph.SpanKind() {
				perSpans[e.Pid]++
				perSteps[e.Pid] += e.Value
			}
		}
		ft := &harness.Table{
			Title:   fmt.Sprintf("%s: phase %q per process", name, ph),
			Columns: []string{"process", "spans", "steps"},
		}
		pids := make([]int, 0, len(perSpans))
		for p := range perSpans {
			pids = append(pids, p)
		}
		sort.Ints(pids)
		for _, p := range pids {
			ft.Add(fmt.Sprintf("p%d", p), perSpans[p], perSteps[p])
		}
		if len(pids) == 0 {
			ft.Note("no %q spans in this trace.", ph)
		}
		tables = append(tables, ft)
	}

	// Scan-retry distribution: each scan.clean / scan.borrow event carries the
	// number of retried collects that scan took in Value.
	h := harness.NewHistogram(0, 1, 2, 4, 8, 16, 32, 64, 128)
	for _, e := range events {
		if e.Kind == obs.ScanClean || e.Kind == obs.ScanBorrow {
			h.Observe(e.Value)
		}
	}
	if snap := h.Snapshot(); snap.Count > 0 {
		ht := &harness.Table{
			Title:   fmt.Sprintf("%s: double-collect retries per scan (%d scans)", name, snap.Count),
			Columns: []string{"retries ≤", "scans"},
		}
		for _, b := range snap.Buckets {
			if b.Count == 0 {
				continue
			}
			label := fmt.Sprintf("%d", b.Le)
			if b.Le == math.MaxInt64 {
				label = "more"
			}
			ht.Add(label, b.Count)
		}
		ht.Note("p50=%s p90=%s p99=%s max=%d", harness.F(snap.P50), harness.F(snap.P90), harness.F(snap.P99), snap.Max)
		tables = append(tables, ht)
	}

	// Audit summary, only when the trace carries audit-layer events (audited
	// runs; clean unaudited traces keep their historical output).
	for _, e := range events {
		if e.Kind.Layer() == obs.LayerAudit {
			tables = append(tables, auditTables(name, events)...)
			break
		}
	}

	return tables
}

// Event aliases obs.Event for brevity in this package.
type Event = obs.Event
