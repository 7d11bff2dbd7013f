package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/obs/prof"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/scan"
	"github.com/dsrepro/consensus/internal/sched"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/executions.golden from the current tree")

const executionGoldens = "testdata/executions.golden"

var goldenKinds = []Kind{KindBounded, KindAHUnbounded, KindExpLocal, KindStrongCoin, KindAbrahamson, KindAnonymous}

// goldenMemories are the four memory stacks of the golden grid.
var goldenMemories = []struct {
	name string
	cfg  Config
}{
	{"arrow", Config{}},
	{"bloom", Config{UseBloomArrows: true}},
	{"seqsnap", Config{MemKind: scan.KindSeqSnap}},
	{"waitfree", Config{MemKind: scan.KindWaitFree}},
}

// goldenAdversaries are the four schedules of the golden grid; "commuting"
// is the random adversary under commuting dispatch.
var goldenAdversaries = []struct {
	name      string
	adv       func(n int, seed int64) sched.Adversary
	commuting bool
}{
	{"random", func(_ int, seed int64) sched.Adversary { return sched.NewRandom(seed) }, false},
	{"round-robin", func(int, int64) sched.Adversary { return sched.NewRoundRobin() }, false},
	{"crash", func(n int, seed int64) sched.Adversary {
		return sched.NewCrash(sched.NewRandom(seed), map[int]int64{n - 1: int64(3 * n)})
	}, false},
	{"commuting", func(_ int, seed int64) sched.Adversary { return sched.NewRandom(seed) }, true},
}

// goldenRun is one execution of the grid.
type goldenRun struct {
	kind      Kind
	mem       int // index into goldenMemories
	n         int
	adv       int // index into goldenAdversaries
	seed      int64
	commuting bool
}

// exec runs proto once with every instrument attached and returns the hashed
// material: the JSONL trace, the exact outcome and the final protocol state.
func (r goldenRun) exec(t *testing.T, proto Protocol) (trace, outcome, state []byte) {
	t.Helper()
	inputs := make([]int, r.n)
	for i := range inputs {
		inputs[i] = (i + i/2) % 2 // 0,1,1,0,...
	}
	ga := goldenAdversaries[r.adv]
	return execInstrumented(t, r.String(), proto, ExecConfig{
		Inputs:    inputs,
		Seed:      r.seed,
		Adversary: ga.adv(r.n, r.seed),
		MaxSteps:  5_000_000,
		Commuting: ga.commuting,
	})
}

// execInstrumented runs proto once under ec with a JSONL trace, the monitor
// at SampleEvery 1, the profiler and the space meter attached, and returns
// the trace, the exact outcome and the final protocol state.
func execInstrumented(t *testing.T, name string, proto Protocol, ec ExecConfig) (trace, outcome, state []byte) {
	t.Helper()
	var buf bytes.Buffer
	rec := obs.NewJSONLRecorder(&buf)
	sink := obs.NewSink(rec)
	ec.Sink = sink
	ec.Monitor = audit.New(audit.Options{SampleEvery: 1})
	ec.Profiler = prof.New(prof.Options{N: len(ec.Inputs)})
	ec.Space = space.NewMeter()
	out, err := ExecuteProto(proto, ec)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := json.Marshal(proto.(interface{ captureState() audit.State }).captureState())
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), outcomeBytes(out, sink.Registry().Snapshot(), ec), st
}

func (r goldenRun) String() string {
	return fmt.Sprintf("%s %s n=%d %s seed=%d", r.kind, goldenMemories[r.mem].name, r.n,
		goldenAdversaries[r.adv].name, r.seed)
}

// outcomeBytes renders everything a run reports except its trace, with no
// floating-point summary, so the rendering is the same on every platform.
func outcomeBytes(out Outcome, reg obs.Snapshot, ec ExecConfig) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "decided=%v values=%v err=%v\n", out.Decided, out.Values, out.Err)
	fmt.Fprintf(&b, "sched=%+v\nmetrics=%+v\n", out.Sched, out.Metrics)
	writeSnapshot(&b, "registry", reg)
	fmt.Fprintf(&b, "violations=%v\n", sortedKeys(ec.Monitor.Violations()))
	writeSnapshot(&b, "prof", ec.Profiler.Snapshot())
	u, _ := json.Marshal(ec.Space.Usage())
	fmt.Fprintf(&b, "space=%s\n", u)
	return []byte(b.String())
}

// writeSnapshot renders counters, gauges, histogram counts and matrices in
// key order; histograms contribute only their integer fields.
func writeSnapshot(b *strings.Builder, name string, s obs.Snapshot) {
	fmt.Fprintf(b, "%s.counters=%v\n%s.gauges=%v\n", name, sortedKeys(s.Counters), name, sortedKeys(s.Gauges))
	for _, k := range sortedNames(s.Hists) {
		h := s.Hists[k]
		fmt.Fprintf(b, "%s.hist %s count=%d sum=%d min=%d max=%d buckets=%v\n", name, k, h.Count, h.Sum, h.Min, h.Max, h.Buckets)
	}
	for _, k := range sortedNames(s.Matrices) {
		fmt.Fprintf(b, "%s.matrix %s %+v\n", name, k, s.Matrices[k])
	}
}

func sortedNames[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedKeys(m map[string]int64) []string {
	var out []string
	for _, k := range sortedNames(m) {
		out = append(out, fmt.Sprintf("%s:%d", k, m[k]))
	}
	return out
}

func shortHash(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenLine runs r on a fresh instance and renders its golden line.
func goldenLine(t *testing.T, r goldenRun) string {
	t.Helper()
	cfg := goldenMemories[r.mem].cfg
	cfg.N = r.n
	proto, err := New(r.kind, cfg)
	if err != nil {
		t.Fatalf("%s: %v", r, err)
	}
	trace, outcome, state := r.exec(t, proto)
	return fmt.Sprintf("%s trace=%s outcome=%s state=%s", r, shortHash(trace), shortHash(outcome), shortHash(state))
}

// arenaLine runs six seeds of one configuration through one Arena, so all
// but the first reuse the instance through Reset, and renders one line
// hashing all six runs.
func arenaLine(t *testing.T, kind Kind) string {
	t.Helper()
	a := NewArena()
	var first Protocol
	var traces, outcomes, states [][]byte
	for seed := int64(1); seed <= 6; seed++ {
		r := goldenRun{kind: kind, n: 4, seed: seed}
		proto, err := a.Protocol(kind, Config{N: r.n})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = proto
		} else if proto != first {
			t.Fatalf("%s arena: seed %d built a new instance instead of resetting", kind, seed)
		}
		tr, out, st := r.exec(t, proto)
		traces, outcomes, states = append(traces, tr), append(outcomes, out), append(states, st)
	}
	return fmt.Sprintf("%s arena n=4 random seeds=1..6 trace=%s outcome=%s state=%s", kind,
		shortHash(traces...), shortHash(outcomes...), shortHash(states...))
}

// tracedRow is one configuration of the traced golden lines.
type tracedRow struct {
	kind     Kind
	variant  string // memory or instrument variant, "" for the protocol's defaults
	cfg      Config
	n        int
	audit    bool   // attach the audit monitor at SampleEvery 1 and the profiler
	mutation string // fault injector armed for the row's runs (audit.EnableMutation)
}

func (r tracedRow) String() string {
	if r.variant == "" {
		return fmt.Sprintf("%s n=%d", r.kind, r.n)
	}
	return fmt.Sprintf("%s %s n=%d", r.kind, r.variant, r.n)
}

// name is the row's subtest name: the protocol, then the variant or, for the
// n=8 rows, the size.
func (r tracedRow) name() string {
	switch {
	case r.variant != "":
		return fmt.Sprintf("%s/%s", r.kind, r.variant)
	case r.n != 4:
		return fmt.Sprintf("%s/n=%d", r.kind, r.n)
	}
	return r.kind.String()
}

// tracedRows are the traced lines' configurations: every protocol at n=4, the
// step-sequence scan at n=8, its op-by-op path over Bloom arrows, the audit
// monitor's register histories and the profiler's hooks, and the torn-scan
// fault, whose check and retry bookkeeping run inside the scan's ops.
var tracedRows = func() []tracedRow {
	var rows []tracedRow
	for _, kind := range goldenKinds {
		rows = append(rows, tracedRow{kind: kind, n: 4})
	}
	return append(rows,
		tracedRow{kind: KindBounded, n: 8},
		tracedRow{kind: KindBounded, variant: "bloom", cfg: Config{UseBloomArrows: true}, n: 4},
		tracedRow{kind: KindBounded, variant: "audit+prof", n: 4, audit: true},
		tracedRow{kind: KindAHUnbounded, n: 8},
		tracedRow{kind: KindAHUnbounded, variant: "scan.torn", n: 4, audit: true, mutation: "scan.torn"},
	)
}()

// tracedLines runs row at seeds 1..4 under the random adversary with a JSONL
// trace and only the row's own instruments attached, and renders one line per
// seed: short hashes of the trace, the exact outcome and the (pid, step)
// grant sequence.
func tracedLines(t *testing.T, row tracedRow) []string {
	t.Helper()
	if row.mutation != "" {
		if err := audit.EnableMutation(row.mutation); err != nil {
			t.Fatal(err)
		}
		defer audit.DisableAll()
	}
	inputs := make([]int, row.n)
	for i := range inputs {
		inputs[i] = (i + i/2) % 2 // 0,1,1,0,...
	}
	var lines []string
	for seed := int64(1); seed <= 4; seed++ {
		var buf bytes.Buffer
		var grants []byte
		rec := obs.NewJSONLRecorder(&buf)
		ec := ExecConfig{
			Inputs:    inputs,
			Seed:      seed,
			Adversary: sched.NewRandom(seed),
			MaxSteps:  5_000_000,
			Sink:      obs.NewSink(rec),
			OnStep:    recordGrants(&grants),
		}
		if row.audit {
			ec.Monitor = audit.New(audit.Options{SampleEvery: 1})
			ec.Profiler = prof.New(prof.Options{N: row.n})
		}
		out, err := Execute(row.kind, row.cfg, ec)
		if err != nil {
			t.Fatalf("%s seed=%d: %v", row, seed, err)
		}
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		if row.mutation != "" && len(ec.Monitor.Violations()) == 0 {
			t.Errorf("%s seed=%d: %s fired no violation", row, seed, row.mutation)
		}
		outcome := outcomeBytes(out, ec.Sink.Registry().Snapshot(), ec)
		lines = append(lines, fmt.Sprintf("traced %s random seed=%d trace=%s outcome=%s grants=%s",
			row, seed, shortHash(buf.Bytes()), shortHash(outcome), shortHash(grants)))
	}
	return lines
}

// recordGrants returns an OnStep hook that appends each grant to *b as a
// "pid step" line.
func recordGrants(b *[]byte) func(pid int, step int64) {
	return func(pid int, step int64) { *b = fmt.Appendf(*b, "%d %d\n", pid, step) }
}

// sliceAdv is the slice adversary: it picks a waiting pid at random, draws u
// uniform in [0, 1), and keeps granting that pid for min(maxQ, ⌊1/(u²+1e-12)⌋)
// more steps while it is waiting. Its slices are mostly short with a heavy
// tail of long solo runs.
type sliceAdv struct {
	rng  *rand.Rand
	maxQ int64
	pid  int
	left int64
}

func newSliceAdv(seed, maxQ int64) *sliceAdv {
	return &sliceAdv{rng: rand.New(rand.NewSource(seed*7919 + maxQ)), maxQ: maxQ}
}

func (a *sliceAdv) Next(waiting []int, _ int64) int {
	if a.left > 0 && slices.Contains(waiting, a.pid) {
		a.left--
		return a.pid
	}
	a.pid = waiting[a.rng.Intn(len(waiting))]
	u := a.rng.Float64()
	a.left = min(a.maxQ, int64(1/(u*u+1e-12)))
	return a.pid
}

// sliceLine renders the golden line of the bounded protocol's n=8 slice
// reproduction: Arrow memory, inputs i mod 2, instance seed 21, maxQ 10⁶ and
// the StepBudget, every instrument attached. The line records a run that
// breaks agreement: it decides [0 0 0 1 1 0 0 0] in 28,759 steps, and the
// monitor reports core.agreement twice and strip.graph 768 times. A fix of
// that fault moves this line and names it among the runs it moved.
func sliceLine(t *testing.T) string {
	t.Helper()
	const n, seed, maxQ = 8, 21, 1_000_000
	inputs := make([]int, n)
	for i := range inputs {
		inputs[i] = i % 2
	}
	proto, err := New(KindBounded, Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	var grants []byte
	name := fmt.Sprintf("%s arrow n=%d slice maxQ=%d seed=%d", KindBounded, n, maxQ, seed)
	trace, outcome, state := execInstrumented(t, name, proto, ExecConfig{
		Inputs:    inputs,
		Seed:      seed,
		Adversary: newSliceAdv(seed, maxQ),
		MaxSteps:  StepBudget(KindBounded, n),
		OnStep:    recordGrants(&grants),
	})
	return fmt.Sprintf("%s trace=%s outcome=%s state=%s grants=%s", name,
		shortHash(trace), shortHash(outcome), shortHash(state), shortHash(grants))
}

// gridLines renders kind's lines of the grid: every memory stack × n ∈ {2, 4}
// × schedule × seeds 1–2, then one n=8 run and one Arena sequence.
func gridLines(t *testing.T, kind Kind) []string {
	t.Helper()
	var lines []string
	for mem := range goldenMemories {
		for _, n := range []int{2, 4} {
			for adv := range goldenAdversaries {
				for seed := int64(1); seed <= 2; seed++ {
					lines = append(lines, goldenLine(t, goldenRun{kind: kind, mem: mem, n: n, adv: adv, seed: seed}))
				}
			}
		}
	}
	lines = append(lines, goldenLine(t, goldenRun{kind: kind, n: 8, seed: 1}))
	return append(lines, arenaLine(t, kind))
}

// goldenKey is the run a golden line pins: the line up to its hashes.
func goldenKey(line string) string {
	key, _, _ := strings.Cut(line, " trace=")
	return key
}

// TestExecutionGoldens pins every protocol's executions to a committed
// golden: for each run of the grid — six protocols × four memory stacks ×
// n ∈ {2, 4} × four schedules × two seeds, one n=8 run per protocol and one
// six-run Arena sequence per protocol — short hashes of the full JSONL
// trace, of the exact outcome (decisions, scheduler accounting, metrics,
// registry counters, gauges and histogram counts, audit violations at
// SampleEvery 1, profiler counters and matrices, space usage) and of the
// final protocol state. The grid is followed by the traced rows (the eleven
// tracedRows × seeds 1–4 under the random adversary, each with only its own
// instruments and fault injector) and by the bounded protocol's n=8 slice
// reproduction (sliceLine); these lines also hash the (pid, step) grant
// sequence. A change that moves an execution names exactly the runs it
// moved. Each protocol's grid lines, each traced row and the slice line run
// as a subtest that checks its own lines, so a -run pattern can select one;
// the whole file's runs and their order are checked when every subtest ran.
// Regenerate with:
//
//	go test ./internal/core -run TestExecutionGoldens -update
func TestExecutionGoldens(t *testing.T) {
	var wantLines []string
	want := map[string]string{}
	if !*updateGoldens {
		b, err := os.ReadFile(executionGoldens)
		if err != nil {
			t.Fatalf("%v (generate with -update)", err)
		}
		wantLines = strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
		for _, l := range wantLines {
			want[goldenKey(l)] = l
		}
	}
	var lines []string
	selected := 0
	section := func(t *testing.T, name string, run func(*testing.T) []string) {
		t.Run(name, func(t *testing.T) {
			selected++
			got := run(t)
			lines = append(lines, got...)
			if *updateGoldens {
				return
			}
			for _, l := range got {
				if w, ok := want[goldenKey(l)]; !ok {
					t.Errorf("no golden line for %s", goldenKey(l))
				} else if l != w {
					t.Errorf("execution moved:\n got  %s\n want %s", l, w)
				}
			}
		})
	}
	for _, kind := range goldenKinds {
		section(t, kind.String(), func(t *testing.T) []string { return gridLines(t, kind) })
	}
	t.Run("traced", func(t *testing.T) {
		for _, row := range tracedRows {
			section(t, row.name(), func(t *testing.T) []string { return tracedLines(t, row) })
		}
	})
	section(t, "slice", func(t *testing.T) []string { return []string{sliceLine(t)} })
	if selected < len(goldenKinds)+len(tracedRows)+1 {
		if *updateGoldens {
			t.Fatalf("-update rewrites the whole file: run every subtest of TestExecutionGoldens")
		}
		return
	}
	if *updateGoldens {
		if t.Failed() {
			return
		}
		if err := os.WriteFile(executionGoldens, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s rewritten (%d lines)", executionGoldens, len(lines))
		return
	}
	if len(wantLines) != len(lines) {
		t.Errorf("golden has %d lines, the grid %d", len(wantLines), len(lines))
	}
	ran := make(map[string]bool, len(lines))
	for _, l := range lines {
		ran[goldenKey(l)] = true
	}
	for _, w := range wantLines {
		if !ran[goldenKey(w)] {
			t.Errorf("no run for golden line %s", goldenKey(w))
		}
	}
	for i := 0; i < len(lines) && i < len(wantLines); i++ {
		if goldenKey(lines[i]) != goldenKey(wantLines[i]) {
			t.Errorf("line %d: the grid runs %s, the golden %s (runs added, dropped or reordered)",
				i+1, goldenKey(lines[i]), goldenKey(wantLines[i]))
			break
		}
	}
}
