package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
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
	var buf bytes.Buffer
	rec := obs.NewJSONLRecorder(&buf)
	sink := obs.NewSink(rec)
	inputs := make([]int, r.n)
	for i := range inputs {
		inputs[i] = (i + i/2) % 2 // 0,1,1,0,...
	}
	ga := goldenAdversaries[r.adv]
	ec := ExecConfig{
		Inputs:    inputs,
		Seed:      r.seed,
		Adversary: ga.adv(r.n, r.seed),
		MaxSteps:  5_000_000,
		Sink:      sink,
		Commuting: ga.commuting,
		Monitor:   audit.New(audit.Options{SampleEvery: 1}),
		Profiler:  prof.New(prof.Options{N: r.n}),
		Space:     space.NewMeter(),
	}
	out, err := ExecuteProto(proto, ec)
	if err != nil {
		t.Fatalf("%s: %v", r, err)
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

// TestExecutionGoldens pins every protocol's executions to a committed
// golden: for each run of the grid — six protocols × four memory stacks ×
// n ∈ {2, 4} × four schedules × two seeds, one n=8 run per protocol and one
// six-run Arena sequence per protocol — short hashes of the full JSONL
// trace, of the exact outcome (decisions, scheduler accounting, metrics,
// registry counters, gauges and histogram counts, audit violations at
// SampleEvery 1, profiler counters and matrices, space usage) and of the
// final protocol state. A change that moves an execution names exactly the
// runs it moved. Regenerate with:
//
//	go test ./internal/core -run TestExecutionGoldens -update
func TestExecutionGoldens(t *testing.T) {
	var lines []string
	for _, kind := range goldenKinds {
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
		lines = append(lines, arenaLine(t, kind))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateGoldens {
		if err := os.WriteFile(executionGoldens, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s rewritten (%d lines)", executionGoldens, len(lines))
		return
	}
	want, err := os.ReadFile(executionGoldens)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Errorf("golden has %d lines, the grid %d", len(wantLines), len(lines))
	}
	for i := 0; i < len(lines) && i < len(wantLines); i++ {
		if lines[i] != wantLines[i] {
			t.Errorf("execution moved:\n got  %s\n want %s", lines[i], wantLines[i])
		}
	}
}
