package consensus

import (
	"bytes"
	"testing"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/prof"
)

// TestProfProfileContents: the profile of a contended bounded run carries a
// consistent step partition, a populated blame matrix matching the scan.retry
// counter, and a critical path ending at the last decider's decide step.
func TestProfProfileContents(t *testing.T) {
	res, err := Solve(Config{
		Inputs:   []int{1, 0, 1, 0, 1, 0, 1, 0},
		Seed:     7,
		Schedule: Schedule{Kind: RandomSchedule},
		Profile:  true,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	p := res.Profile
	if p == nil {
		t.Fatal("no profile")
	}
	sum := p.Classes.Productive + p.Classes.ScanRetry + p.Classes.CoinSpin + p.Classes.StripWait
	if sum != p.Classes.Total {
		t.Errorf("classes do not partition: %d+%d+%d+%d != %d",
			p.Classes.Productive, p.Classes.ScanRetry, p.Classes.CoinSpin,
			p.Classes.StripWait, p.Classes.Total)
	}
	if got, want := p.Blame.Sum(), res.Counters["scan.retry"]; got != want {
		t.Errorf("blame matrix sums to %d, scan.retry counter is %d", got, want)
	}
	if p.Contention.Sum() != p.Blame.Sum() {
		t.Errorf("contention heatmap sums to %d, blame matrix to %d",
			p.Contention.Sum(), p.Blame.Sum())
	}
	for s := 0; s < p.N; s++ {
		if p.Blame.At(s, s) != 0 {
			t.Errorf("process %d blamed for its own scan failure", s)
		}
	}
	cp := p.CriticalPath
	if cp.Decider < 0 {
		t.Fatal("no decider on the critical path")
	}
	if len(cp.Nodes) == 0 {
		t.Fatal("critical path has no nodes")
	}
	last := cp.Nodes[len(cp.Nodes)-1]
	if last.Kind != "decide" || last.Pid != cp.Decider || last.Step != cp.DecideStep {
		t.Errorf("critical path does not end at the decider's decision: %+v", last)
	}
	if last.CP != cp.Len {
		t.Errorf("final node cp %d != path len %d", last.CP, cp.Len)
	}
	// Matrices surface in Result.Matrices under the stable keys.
	if res.Matrices[prof.MatrixBlame].Sum() != p.Blame.Sum() {
		t.Errorf("Result.Matrices[%q] disagrees with the profile", prof.MatrixBlame)
	}
	// prof.* counters surface in Result.Counters.
	if res.Counters[prof.CounterStepsTotal] != p.Classes.Total {
		t.Errorf("Counters[%q] = %d, profile total %d",
			prof.CounterStepsTotal, res.Counters[prof.CounterStepsTotal], p.Classes.Total)
	}
}

// TestProfBatchMergeDeterminism: with Base.Profile set, the batch's merged
// prof.* counters and matrices must be identical at any Parallel — the
// per-instance snapshots merge in instance order, not completion order.
func TestProfBatchMergeDeterminism(t *testing.T) {
	run := func(parallel int) BatchResult {
		res, err := SolveBatch(BatchConfig{
			Instances: 12,
			Seed:      99,
			Parallel:  parallel,
			Base: Config{
				Inputs:   []int{1, 0, 1, 0},
				Schedule: Schedule{Kind: RandomSchedule},
				Profile:  true,
			},
		})
		if err != nil {
			t.Fatalf("SolveBatch(parallel=%d): %v", parallel, err)
		}
		return res
	}
	ref := run(1)
	if ref.Matrices[prof.MatrixBlame].Empty() {
		t.Fatal("batch produced an empty blame matrix; want contention at n=4 random schedule")
	}
	for _, par := range []int{4, 8} {
		got := run(par)
		for k, v := range ref.Counters {
			if got.Counters[k] != v {
				t.Errorf("parallel=%d: counter %s = %d, want %d", par, k, got.Counters[k], v)
			}
		}
		for k, m := range ref.Matrices {
			g := got.Matrices[k]
			if g.Rows != m.Rows || g.Cols != m.Cols {
				t.Errorf("parallel=%d: matrix %s shape %dx%d, want %dx%d",
					par, k, g.Rows, g.Cols, m.Rows, m.Cols)
				continue
			}
			for i := range m.Cells {
				if g.Cells[i] != m.Cells[i] {
					t.Errorf("parallel=%d: matrix %s cell %d = %d, want %d",
						par, k, i, g.Cells[i], m.Cells[i])
					break
				}
			}
		}
	}
	// The batch total must equal the sum of the instances run individually.
	var solo int64
	for k := 0; k < 12; k++ {
		r, err := Solve(Config{
			Inputs:   []int{1, 0, 1, 0},
			Seed:     InstanceSeed(99, k),
			Schedule: Schedule{Kind: RandomSchedule},
			Profile:  true,
		})
		if err != nil {
			t.Fatalf("Solve instance %d: %v", k, err)
		}
		solo += r.Profile.Classes.Total
	}
	if ref.Counters[prof.CounterStepsTotal] != solo {
		t.Errorf("batch prof.steps.total %d != sum of solo runs %d",
			ref.Counters[prof.CounterStepsTotal], solo)
	}
}

// TestProfPerfettoRoundTrip: the Perfetto export of a profiled run parses,
// has one track per process, and its slices/flows match the profile.
func TestProfPerfettoRoundTrip(t *testing.T) {
	res, err := Solve(Config{
		Inputs:   []int{1, 0, 1, 0},
		Seed:     21,
		Schedule: Schedule{Kind: RandomSchedule},
		Profile:  true,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	var buf bytes.Buffer
	if err := prof.WritePerfetto(&buf, res.Profile); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}
	st, err := prof.ParsePerfetto(buf.Bytes())
	if err != nil {
		t.Fatalf("ParsePerfetto: %v", err)
	}
	if st.Tracks != res.Profile.N {
		t.Errorf("trace has %d tracks, want %d", st.Tracks, res.Profile.N)
	}
	if st.Slices != len(res.Profile.Spans) {
		t.Errorf("trace has %d slices, profile has %d spans", st.Slices, len(res.Profile.Spans))
	}
	if st.Slices == 0 {
		t.Error("trace has no phase slices")
	}
}

var _ obs.SpanObserver = (*prof.Profiler)(nil)
