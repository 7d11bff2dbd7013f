package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/obs/prof"
	"github.com/dsrepro/consensus/internal/sched"
)

// engineRow is one configuration the engine-equivalence suite compares.
type engineRow struct {
	name     string
	kind     Kind
	cfg      Config
	n        int
	audit    bool   // attach the audit monitor at SampleEvery 1 and the profiler
	mutation string // fault injector armed for the row's runs (audit.EnableMutation)
}

// tracedRun is everything one execution lets the suite compare.
type tracedRun struct {
	out        Outcome
	trace      []byte
	violations map[string]int64
	prof       obs.Snapshot
}

// execTraced runs one protocol instance with a full JSONL trace attached and
// returns the outcome, the raw trace bytes and, on audited rows, the
// monitor's violations and the profiler's snapshot.
func execTraced(t *testing.T, row engineRow, seed int64, rendezvous bool) tracedRun {
	t.Helper()
	var buf bytes.Buffer
	rec := obs.NewJSONLRecorder(&buf)
	inputs := make([]int, row.n)
	for i := range inputs {
		inputs[i] = (i + i/2) % 2 // 0,1,1,0,...
	}
	ec := ExecConfig{
		Inputs:     inputs,
		Seed:       seed,
		Adversary:  sched.NewRandom(seed),
		MaxSteps:   5_000_000,
		Sink:       obs.NewSink(rec),
		Rendezvous: rendezvous,
	}
	if row.audit {
		ec.Monitor = audit.New(audit.Options{SampleEvery: 1})
		ec.Profiler = prof.New(prof.Options{N: row.n})
	}
	out, err := Execute(row.kind, row.cfg, ec)
	if err != nil {
		t.Fatalf("Execute(%s, seed=%d): %v", row.name, seed, err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatalf("trace flush: %v", err)
	}
	return tracedRun{out: out, trace: buf.Bytes(), violations: ec.Monitor.Violations(), prof: ec.Profiler.Snapshot()}
}

// TestEnginesByteIdenticalTraces proves engine equivalence at the protocol
// level: the full cross-layer JSONL event stream — every register read, scan
// retry, coin flip and decision, in scheduler order — plus decisions, step
// accounting, audit violations and profiler snapshots are byte-identical
// whether the run executes under the legacy rendezvous engine or the
// direct-dispatch engine. Both engines serialize body startup, so even
// events emitted before a process's first scheduler step (each protocol's
// initial round advance) arrive in pid order and the comparison is a plain
// byte-equality check. Every protocol runs at n=4; the other rows cover the
// step-sequence scan at n=8, its op-by-op path over Bloom arrows, the audit
// monitor's register histories and the profiler's hooks, and the torn-scan
// fault, whose check and retry bookkeeping run inside the scan's ops.
func TestEnginesByteIdenticalTraces(t *testing.T) {
	var rows []engineRow
	for _, kind := range []Kind{KindBounded, KindAHUnbounded, KindExpLocal, KindStrongCoin, KindAbrahamson, KindAnonymous} {
		rows = append(rows, engineRow{name: kind.String(), kind: kind, n: 4})
	}
	rows = append(rows,
		engineRow{name: "bounded/n=8", kind: KindBounded, n: 8},
		engineRow{name: "bounded/bloom", kind: KindBounded, cfg: Config{UseBloomArrows: true}, n: 4},
		engineRow{name: "bounded/audit+prof", kind: KindBounded, n: 4, audit: true},
		engineRow{name: "ah-unbounded/n=8", kind: KindAHUnbounded, n: 8},
		engineRow{name: "ah-unbounded/scan.torn", kind: KindAHUnbounded, n: 4, audit: true, mutation: "scan.torn"},
	)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.mutation != "" {
				if err := audit.EnableMutation(row.mutation); err != nil {
					t.Fatal(err)
				}
				defer audit.DisableAll()
			}
			for seed := int64(1); seed <= 4; seed++ {
				old := execTraced(t, row, seed, true)
				cur := execTraced(t, row, seed, false)
				oldOut, newOut := old.out, cur.out
				if !bytes.Equal(old.trace, cur.trace) {
					t.Fatalf("seed %d: JSONL traces diverge between engines (%d vs %d bytes)",
						seed, len(old.trace), len(cur.trace))
				}
				if len(cur.trace) == 0 {
					t.Fatalf("seed %d: empty trace", seed)
				}
				if !reflect.DeepEqual(oldOut.Values, newOut.Values) ||
					!reflect.DeepEqual(oldOut.Decided, newOut.Decided) {
					t.Fatalf("seed %d: decisions diverge: %v/%v vs %v/%v",
						seed, oldOut.Values, oldOut.Decided, newOut.Values, newOut.Decided)
				}
				if oldOut.Sched.Steps != newOut.Sched.Steps {
					t.Fatalf("seed %d: steps diverge: %d vs %d", seed, oldOut.Sched.Steps, newOut.Sched.Steps)
				}
				if !reflect.DeepEqual(oldOut.Sched.PerProc, newOut.Sched.PerProc) ||
					!reflect.DeepEqual(oldOut.Sched.WaitSteps, newOut.Sched.WaitSteps) {
					t.Fatalf("seed %d: sched accounting diverges", seed)
				}
				if !reflect.DeepEqual(oldOut.Metrics, newOut.Metrics) {
					t.Fatalf("seed %d: metrics diverge: %+v vs %+v", seed, oldOut.Metrics, newOut.Metrics)
				}
				if !reflect.DeepEqual(old.violations, cur.violations) {
					t.Fatalf("seed %d: audit violations diverge: %v vs %v", seed, old.violations, cur.violations)
				}
				if row.mutation != "" && len(cur.violations) == 0 {
					t.Fatalf("seed %d: %s fired no violation", seed, row.mutation)
				}
				if !reflect.DeepEqual(old.prof, cur.prof) {
					t.Fatalf("seed %d: profiler snapshots diverge:\n%+v\nvs\n%+v", seed, old.prof, cur.prof)
				}
				if row.audit && old.prof.Counters[prof.CounterStepsTotal] != oldOut.Sched.Steps {
					t.Fatalf("seed %d: profiler classified %d of %d steps", seed,
						old.prof.Counters[prof.CounterStepsTotal], oldOut.Sched.Steps)
				}
			}
		})
	}
}

// TestEnginesAgreeUnderBatch proves the dispatch engine preserves the batch
// engine's worker-count invariance: rendezvous serial, dispatch serial and
// dispatch Parallel=4 all yield identical outcomes.
func TestEnginesAgreeUnderBatch(t *testing.T) {
	const m = 6
	mk := func() []Instance { return batchInstances(KindBounded, Config{}, m, 21) }

	rendezvous := make([]BatchOutcome, m)
	for k, inst := range mk() {
		out, err := Execute(inst.Kind, inst.Cfg, ExecConfig{
			Inputs:     inst.Inputs,
			Seed:       inst.Seed,
			Adversary:  inst.Adversary,
			MaxSteps:   inst.MaxSteps,
			Rendezvous: true,
		})
		rendezvous[k] = BatchOutcome{Out: out, Err: err}
	}
	for _, par := range []int{1, 4} {
		got := RunBatch(par, nil, mk())
		assertBatchEqual(t, fmt.Sprintf("parallel=%d", par), rendezvous, got)
	}
}
