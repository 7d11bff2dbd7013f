package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/sched"
)

// execTraced runs one protocol instance with a full JSONL trace attached and
// returns the outcome plus the raw trace bytes.
func execTraced(t *testing.T, kind Kind, seed int64, rendezvous bool) (Outcome, []byte) {
	t.Helper()
	var buf bytes.Buffer
	rec := obs.NewJSONLRecorder(&buf)
	out, err := Execute(kind, Config{}, ExecConfig{
		Inputs:     []int{0, 1, 1, 0},
		Seed:       seed,
		Adversary:  sched.NewRandom(seed),
		MaxSteps:   5_000_000,
		Sink:       obs.NewSink(rec),
		Rendezvous: rendezvous,
	})
	if err != nil {
		t.Fatalf("Execute(%v, seed=%d): %v", kind, seed, err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatalf("trace flush: %v", err)
	}
	return out, buf.Bytes()
}

// TestEnginesByteIdenticalTraces proves engine equivalence at the protocol
// level: for every protocol kind, the full cross-layer JSONL event stream —
// every register read, scan retry, coin flip and decision, in scheduler
// order — plus decisions and step accounting are byte-identical whether the
// run executes under the legacy rendezvous engine or the direct-dispatch
// engine. Both engines serialize body startup, so even events emitted before
// a process's first scheduler step (each protocol's initial round advance)
// arrive in pid order and the comparison is a plain byte-equality check.
func TestEnginesByteIdenticalTraces(t *testing.T) {
	kinds := []Kind{KindBounded, KindAHUnbounded, KindExpLocal, KindStrongCoin, KindAbrahamson, KindAnonymous}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				oldOut, oldTrace := execTraced(t, kind, seed, true)
				newOut, newTrace := execTraced(t, kind, seed, false)
				if !bytes.Equal(oldTrace, newTrace) {
					t.Fatalf("seed %d: JSONL traces diverge between engines (%d vs %d bytes)",
						seed, len(oldTrace), len(newTrace))
				}
				if len(newTrace) == 0 {
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
