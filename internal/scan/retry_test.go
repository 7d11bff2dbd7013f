package scan

import (
	"reflect"
	"testing"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/prof"
	"github.com/dsrepro/consensus/internal/register"
	"github.com/dsrepro/consensus/internal/sched"
)

// opByOpFactory builds direct arrows behind a wrapper, so NewArrow does not
// see Direct2W registers and the memory runs a scan's ops one by one on the
// scanner's own coroutine (Arrow.run) instead of as a step sequence.
func opByOpFactory(a, b int, init bool) register.TwoWriter {
	return struct{ register.TwoWriter }{register.DirectFactory(a, b, init)}
}

// scanPaths names the two ways an Arrow over direct arrows runs a scan's
// ops on the dispatcher: as a step sequence, whose ops the dispatcher runs
// on the coroutine of whichever process's Step granted them, and op by op,
// each on the scanner's own coroutine.
var scanPaths = []struct {
	name    string
	factory register.TwoWriterFactory
}{{"dispatch", register.DirectFactory}, {"op-by-op", opByOpFactory}}

// scanEvent is the part of a ScanRetry or ScanClean event the retry tests
// pin.
type scanEvent struct {
	kind        obs.Kind
	pid         int
	step, value int64
}

// TestArrowScanRetryBookkeeping scripts an n=3 schedule in which scanner 0's
// scan fails exactly twice before a clean pass: first by a toggle mismatch
// (writer 1's value write lands between the two collects, its arrow set
// before the clear), then by a set arrow (writer 2 sets the scanner's arrow
// after the clear). The retry bookkeeping runs inside the op that finds the
// pass dirty; the view, Retries, every ScanRetry and ScanClean event and the
// profiler's blame (culprit, reason and the steps each failed pass burned)
// must come out the same on both scanPaths: the op-by-op path computes them
// on the scanner's own coroutine, while the step-sequence path runs a parked
// scanner's op on the coroutine of the writer whose Step granted it.
func TestArrowScanRetryBookkeeping(t *testing.T) {
	// One pid per grant. A scanner pass at n=3 is 2 arrow clears, 2+2
	// collect reads and up to 2 arrow re-reads; a write is 2 arrow sets and
	// the value write.
	script := []int{
		1, 1, // writer 1 sets arrows (0,1) and (2,1)
		0, 0, 0, 0, // pass 1: clears, first collect
		1,    // writer 1 writes 11: slot 1's toggle flips between the collects
		0, 0, // second collect
		0,    // re-read (0,1): clear, but toggles differ: retry 1 at step 10
		0, 0, // pass 2: clears
		2,          // writer 2 sets arrow (0,2) after the clear
		0, 0, 0, 0, // collects
		0, 0, // re-reads: (0,1) clean, (0,2) set: retry 2 at step 19
		2, 2, // writer 2 sets arrow (1,2) and writes 22
		0, 0, 0, 0, 0, 0, 0, 0, // pass 3: clean, ends at step 29
	}
	want := []scanEvent{
		{obs.ScanRetry, 0, 10, 1},
		{obs.ScanRetry, 0, 19, 2},
		{obs.ScanClean, 0, 29, 2},
	}
	for _, path := range scanPaths {
		t.Run(path.name, func(t *testing.T) {
			mem := NewArrow[int](3, path.factory)
			var got []scanEvent
			mem.SetSink(obs.NewSink(obs.FuncRecorder(func(e obs.Event) {
				if e.Kind == obs.ScanRetry || e.Kind == obs.ScanClean {
					got = append(got, scanEvent{e.Kind, e.Pid, e.Step, e.Value})
				}
			})))
			f := prof.New(prof.Options{N: 3})
			mem.SetProfiler(f)
			adv := sched.FuncAdversary(func(waiting []int, step int64) int {
				if step >= int64(len(script)) {
					t.Errorf("grant %d is past the script (waiting %v)", step, waiting)
					return -1
				}
				return script[step]
			})
			var view []int
			res, err := sched.Run(sched.Config{N: 3, Seed: 1, Adversary: adv}, func(p *sched.Proc) {
				if p.ID() == 0 {
					view = append(view, mem.Scan(p)...)
					return
				}
				mem.Write(p, 11*p.ID())
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Steps != int64(len(script)) {
				t.Errorf("run took %d steps, want the script's %d", res.Steps, len(script))
			}
			if w := []int{0, 11, 22}; !reflect.DeepEqual(view, w) {
				t.Errorf("view = %v, want %v", view, w)
			}
			if r := mem.Retries(0); r != 2 {
				t.Errorf("Retries(0) = %d, want 2", r)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("scan events = %v, want %v", got, want)
			}
			rep := f.Report()
			if w := map[string]int64{"toggle": 1, "arrow": 1}; !reflect.DeepEqual(rep.Reasons, w) {
				t.Errorf("blame reasons = %v, want %v", rep.Reasons, w)
			}
			if w := []int64{0, 1, 1, 0, 0, 0, 0, 0, 0}; !reflect.DeepEqual(rep.Blame.Cells, w) {
				t.Errorf("blame matrix = %v, want scanner 0 blaming writers 1 and 2 once each", rep.Blame.Cells)
			}
			// Pass 1 stopped at its first re-read (7 steps), pass 2 at its
			// second (8).
			if burned := rep.PerProc[0].Classes.ScanRetry; burned != 15 {
				t.Errorf("failed passes burned %d steps, want 7+8", burned)
			}
		})
	}
}

// TestArrowScanAloneTakesNoStep: with n=1 there is no other slot to collect,
// so a scan takes no step and returns the caller's last write, on the
// classic path, which the dispatcher runs as step sequences, and on the
// epoch path (SetEpoch).
func TestArrowScanAloneTakesNoStep(t *testing.T) {
	for _, c := range []struct {
		name  string
		epoch bool
	}{{"dispatch", false}, {"epoch", true}} {
		t.Run(c.name, func(t *testing.T) {
			mem := NewArrow[int](1, register.DirectFactory)
			mem.SetEpoch(c.epoch)
			_, err := sched.Run(sched.Config{N: 1, Seed: 1}, func(p *sched.Proc) {
				for v := 1; v <= 3; v++ {
					mem.Write(p, v)
					before := p.Steps()
					view := mem.Scan(p)
					if p.Steps() != before {
						t.Errorf("scan took %d steps, want 0", p.Steps()-before)
					}
					if !reflect.DeepEqual(view, []int{v}) {
						t.Errorf("view = %v, want [%d]", view, v)
					}
				}
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}
