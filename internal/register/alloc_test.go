package register

import (
	"testing"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/sched"
)

// TestRegisterOpsZeroAlloc pins the observability tentpole's zero-cost
// guarantee at the hottest layer: a register access must not allocate when
// observability is off (nil sink) or metrics-only (sink without recorder).
func TestRegisterOpsZeroAlloc(t *testing.T) {
	swmr := NewSWMR(0, 0)
	tog := NewToggledSWMR(0, 0)
	d2w := NewDirect2W(0, 1, false)
	bloom := NewBloom2W(0, 1, false)
	check := func(mode string) {
		_, err := sched.NewNative(sched.NativeOptions{}).Run(sched.Config{N: 1, Seed: 1}, func(p *sched.Proc) {
			if n := testing.AllocsPerRun(500, func() {
				swmr.Write(p, 7)
				_ = swmr.Read(p)
				tog.Write(p, 3)
				_ = tog.Read(p)
				d2w.Write(p, true)
				_ = d2w.Read(p)
				bloom.Write(p, true)
				_ = bloom.Read(p)
			}); n != 0 {
				t.Errorf("%s: %v allocs per register-op batch, want 0", mode, n)
			}
		})
		if err != nil {
			t.Fatalf("%s: Run: %v", mode, err)
		}
	}

	check("no sink")

	s := obs.NewSink(nil) // metrics-only: counted, never recorded
	for _, r := range []SinkSetter{swmr, tog, d2w, bloom} {
		r.SetSink(s)
	}
	check("metrics-only sink")
	if got := s.Registry().KindCount(obs.RegSWMRRead); got == 0 {
		t.Error("metrics-only sink did not count SWMR reads")
	}
}

// TestSerializedRegisterOpsZeroAlloc is TestRegisterOpsZeroAlloc on the step
// scheduler, whose processes do not race: the lock-free paths, the one-copy
// toggled reads and a run-local sink view allocate nothing either.
func TestSerializedRegisterOpsZeroAlloc(t *testing.T) {
	swmr := NewSWMR(0, 0)
	tog := NewToggledSWMR(0, 0)
	d2w := NewDirect2W(0, 1, false)
	bloom := NewBloom2W(0, 1, false)
	mrmw := NewDirectMRMW(0, false)
	var dst int
	shared := obs.NewSink(nil)
	view := shared.Local(nil)
	for _, mode := range []struct {
		name string
		sink *obs.Sink
	}{{"no sink", nil}, {"metrics-only sink", shared}, {"run-local view", view}} {
		for _, r := range []SinkSetter{swmr, tog, d2w, bloom, mrmw} {
			r.SetSink(mode.sink)
		}
		_, err := sched.Run(sched.Config{N: 1, Seed: 1}, func(p *sched.Proc) {
			if p.Races() {
				t.Fatalf("%s: a serialized process reports racing steps", mode.name)
			}
			if n := testing.AllocsPerRun(500, func() {
				swmr.Write(p, 7)
				_ = swmr.Read(p)
				tog.Write(p, 3)
				_ = tog.Read(p)
				_ = tog.ReadTo(p, &dst)
				_ = tog.ReadTo(p, nil)
				d2w.Write(p, true)
				_ = d2w.Read(p)
				bloom.Write(p, true)
				_ = bloom.Read(p)
				mrmw.Write(p, 1)
				_ = mrmw.Read(p)
			}); n != 0 {
				t.Errorf("%s: %v allocs per register-op batch, want 0", mode.name, n)
			}
		})
		if err != nil {
			t.Fatalf("%s: Run: %v", mode.name, err)
		}
	}
	view.Flush()
	if got := shared.Registry().KindCount(obs.RegSWMRRead); got == 0 {
		t.Error("the run-local view's SWMR reads did not reach the registry")
	}
}

// TestRegisterOpEvents: each register operation is one event of its kind. A
// recording sink gets the full event, stamped with the step the operation
// took; a metrics-only run-local view, which builds no event, counts the same
// kinds.
func TestRegisterOpEvents(t *testing.T) {
	swmr := NewSWMR(1, 0)
	d2w := NewDirect2W(0, 1, false)
	mrmw := NewDirectMRMW(0, false)
	ops := func(p *sched.Proc) {
		if p.ID() != 1 {
			return
		}
		swmr.Write(p, 7)
		_ = swmr.Read(p)
		d2w.Write(p, true)
		_ = d2w.Read(p)
		mrmw.Write(p, 1)
		_ = mrmw.Read(p)
	}
	want := []obs.Event{
		{Step: 1, Pid: 1, Kind: obs.RegSWMRWrite, Value: 1},
		{Step: 2, Pid: 1, Kind: obs.RegSWMRRead, Value: 1},
		{Step: 3, Pid: 1, Kind: obs.Reg2WWrite},
		{Step: 4, Pid: 1, Kind: obs.Reg2WRead},
		{Step: 5, Pid: 1, Kind: obs.RegMRMWWrite, Value: 1},
		{Step: 6, Pid: 1, Kind: obs.RegMRMWRead, Value: 1},
	}

	var recorded []obs.Event
	traced := obs.NewSink(obs.FuncRecorder(func(e obs.Event) { recorded = append(recorded, e) }))
	metrics := obs.NewSink(nil)
	view := metrics.Local(nil)
	for _, s := range []*obs.Sink{traced, view} {
		for _, r := range []SinkSetter{swmr, d2w, mrmw} {
			r.SetSink(s)
		}
		if _, err := sched.Run(sched.Config{N: 2, Seed: 1}, ops); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	view.Flush()

	if len(recorded) != len(want) {
		t.Fatalf("recording sink got %d events, want %d: %+v", len(recorded), len(want), recorded)
	}
	for i, e := range recorded {
		if e != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
	for _, e := range want {
		if got := metrics.Registry().KindCount(e.Kind); got != 1 {
			t.Errorf("metrics-only view counted %d %s events, want 1", got, e.Kind.ID())
		}
	}
}
