package sched

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// seqFunc adapts a function to Seq.
type seqFunc func(p *Proc, k int) bool

func (f seqFunc) Op(p *Proc, k int) bool { return f(p, k) }

// stepOps is a step sequence of bare steps that never stops early.
var stepOps = seqFunc(func(p *Proc, _ int) bool {
	p.Step()
	return true
})

// opRec is one step-sequence op as its process observed it.
type opRec struct {
	k             int
	before, after int64 // Now before and after the op's Step
	steps         int64 // Steps after the op
}

// seqRun is everything a runSeqBody run lets a test compare.
type seqRun struct {
	grants []grantRec
	res    Result
	err    error
	ops    [][]opRec // per pid
	counts [][]int   // per pid: what each StepSeq returned
}

// loopSeq is StepSeq's reference: p calls ops 0..n-1 of s itself in a plain
// loop, stopping after an op that reports false, and so runs every op in its
// own process.
func loopSeq(p *Proc, s Seq, n int) int {
	for k := 0; k < n; k++ {
		if !s.Op(p, k) {
			return k + 1
		}
	}
	return n
}

// runSeqBody runs a body that mixes plain Steps with step sequences of every
// length from 0 to 6, whose ops stop early on a rule of (pid, k, Steps). The
// body runs each sequence through seq: StepSeq or its reference loopSeq.
func runSeqBody(t *testing.T, cfg Config, seq func(*Proc, Seq, int) int) seqRun {
	t.Helper()
	r := seqRun{ops: make([][]opRec, cfg.N), counts: make([][]int, cfg.N)}
	op := seqFunc(func(p *Proc, k int) bool {
		before := p.Now()
		p.Step()
		i := p.ID()
		r.ops[i] = append(r.ops[i], opRec{k, before, p.Now(), p.Steps()})
		return (i+k+int(p.Steps()))%5 != 0
	})
	r.grants, r.res, r.err, _ = engineRun(t, cfg, func(p *Proc) {
		i := p.ID()
		for round := 0; round < 12; round++ {
			p.Step()
			r.counts[i] = append(r.counts[i], seq(p, op, (i+round)%7))
		}
	})
	return r
}

// TestStepSeqMatchesLoop checks the dispatcher's inline ops against the same
// ops called by each process in a plain loop on the same dispatcher, which
// runs every op in its own process: for every op the (Now before its Step,
// Now after it, Steps) triple, every StepSeq count, the grant sequence and
// the Result must be identical.
func TestStepSeqMatchesLoop(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		for _, adv := range equivAdversaries {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("n=%d/%s/seed=%d", n, adv.name, seed), func(t *testing.T) {
					mk := func() Config {
						return Config{N: n, Seed: seed, Adversary: adv.mk(n, seed)}
					}
					want := runSeqBody(t, mk(), loopSeq)
					got := runSeqBody(t, mk(), (*Proc).StepSeq)
					if want.err != got.err {
						t.Fatalf("error: loop=%v StepSeq=%v", want.err, got.err)
					}
					for name, pair := range map[string][2]any{
						"grants":    {want.grants, got.grants},
						"PerProc":   {want.res.PerProc, got.res.PerProc},
						"WaitSteps": {want.res.WaitSteps, got.res.WaitSteps},
						"Finished":  {want.res.Finished, got.res.Finished},
						"ops":       {want.ops, got.ops},
						"counts":    {want.counts, got.counts},
					} {
						if !reflect.DeepEqual(pair[0], pair[1]) {
							t.Fatalf("%s diverge:\nloop=%v\nStepSeq=%v", name, pair[0], pair[1])
						}
					}
				})
			}
		}
	}
}

// TestStepSeqCounts checks StepSeq's count under both grant policies and on
// the native substrate: a full run returns n, an early stop returns the ops
// that ran, and n = 0 takes no step.
func TestStepSeqCounts(t *testing.T) {
	stopAt2 := seqFunc(func(p *Proc, k int) bool {
		p.Step()
		return k != 2
	})
	cases := []struct {
		name      string
		s         Seq
		n         int
		wantCount int
	}{
		{"full", stepOps, 4, 4},
		{"early-stop", stopAt2, 5, 3},
		{"stop-on-last", stopAt2, 3, 3},
		{"empty", stepOps, 0, 0},
	}
	engines := []struct {
		name string
		run  func(Config, func(*Proc)) (Result, error)
		cfg  Config
	}{
		{"sequential", Run, Config{}},
		{"commuting", Run, Config{Commuting: true}},
		{"native", NewNative(NativeOptions{}).Run, Config{}},
	}
	for _, e := range engines {
		for _, tc := range cases {
			t.Run(e.name+"/"+tc.name, func(t *testing.T) {
				cfg := e.cfg
				cfg.N, cfg.Seed = 3, 1
				counts := make([]int, cfg.N)
				res, err := e.run(cfg, func(p *Proc) {
					counts[p.ID()] = p.StepSeq(tc.s, tc.n)
				})
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				for pid, c := range counts {
					if c != tc.wantCount || res.PerProc[pid] != int64(tc.wantCount) {
						t.Fatalf("process %d: StepSeq returned %d after %d steps, want %d",
							pid, c, res.PerProc[pid], tc.wantCount)
					}
				}
			})
		}
	}
}

// goid returns the calling goroutine's id. Each coroutine of a run is a
// goroutine of its own, so it tells which process's coroutine runs a Seq op.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// TestStepSeqRunsOpsInline pins who runs the ops under each policy. Under
// round-robin, sequential dispatch runs the ops of processes 1..3 on the
// coroutine of process 0, whose Steps issue their grants. The exceptions are
// their last ops: each is granted by the completion of the process before
// it, and no process is asking for that grant, so Run resumes the process to
// run the op itself. The commuting policy runs every op in its own process.
func TestStepSeqRunsOpsInline(t *testing.T) {
	for _, commuting := range []bool{false, true} {
		t.Run(fmt.Sprintf("commuting=%v", commuting), func(t *testing.T) {
			const n = 4
			body := make([]string, n)
			var foreign int
			op := seqFunc(func(p *Proc, _ int) bool {
				p.Step()
				if goid() != body[p.ID()] {
					foreign++
				}
				return true
			})
			_, err := Run(Config{N: n, Seed: 1, Commuting: commuting}, func(p *Proc) {
				body[p.ID()] = goid()
				p.StepSeq(op, 10)
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if want := map[bool]int{false: 3 * 9, true: 0}[commuting]; foreign != want {
				t.Fatalf("%d ops ran on another process's coroutine, want %d", foreign, want)
			}
		})
	}
}

// TestStepSeqOpGuard checks that an op taking no Step or more than one
// panics under both policies with a message naming the process and the op
// index, and that the re-raised panic names that process. Under sequential
// dispatch process 1's ops run on process 0's coroutine, where a second Step
// must panic before it dispatches.
func TestStepSeqOpGuard(t *testing.T) {
	cases := []struct {
		name    string
		op      func(p *Proc)
		want    string
		seqOnly bool // nesting is only detectable where ops run inline
	}{
		{"no-step", func(*Proc) {}, "process 1: step-sequence op 3 took no step", false},
		{"two-steps", func(p *Proc) { p.Step(); p.Step() }, "process 1: step-sequence op 3 took more than one step", false},
		{"nested", func(p *Proc) { p.StepSeq(stepOps, 1) }, "process 1: step-sequence op 3 took more than one step", true},
	}
	for _, commuting := range []bool{false, true} {
		for _, tc := range cases {
			if commuting && tc.seqOnly {
				continue
			}
			t.Run(fmt.Sprintf("%s/commuting=%v", tc.name, commuting), func(t *testing.T) {
				op := seqFunc(func(p *Proc, k int) bool {
					if p.ID() == 1 && k == 3 {
						tc.op(p)
					} else {
						p.Step()
					}
					return true
				})
				rec := func() (r any) {
					defer func() { r = recover() }()
					_, _ = Run(Config{N: 3, Seed: 1, Commuting: commuting}, func(p *Proc) {
						p.StepSeq(op, 6)
					})
					return nil
				}()
				msg, _ := rec.(string)
				if !strings.Contains(msg, tc.want) || !strings.Contains(msg, "\n\nprocess 1 panicked at:") {
					t.Fatalf("Run panicked with %v, want %q from process 1", rec, tc.want)
				}
			})
		}
	}
}
