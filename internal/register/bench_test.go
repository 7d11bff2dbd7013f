package register

import (
	"testing"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/sched"
)

// benchEntry has the shape of the bounded protocol's register value
// (core.Entry): the payload the Arrow memory's collects copy.
type benchEntry struct {
	Pref        int8
	CurrentCoin int
	Coin, Edge  []int
	Decided     bool
}

// BenchmarkRegisterOps times one operation of each register kind inside a
// solo run of the step scheduler, where every step is a self-grant, counting
// into a run-local sink view as core.ExecuteProto's simulated runs do. The
// ns/op include the engine's own step, which "step" times alone.
func BenchmarkRegisterOps(b *testing.B) {
	sink := obs.NewSink(nil).Local(nil)
	val := benchEntry{Coin: make([]int, 8), Edge: make([]int, 8)}
	swmr := NewSWMR(0, val)
	tog := NewToggledSWMR(0, val)
	d2w := NewDirect2W(0, 1, false)
	bloom := NewBloom2W(0, 1, false)
	mrmw := NewDirectMRMW[int8](0, false)
	for _, r := range []SinkSetter{swmr, tog, d2w, bloom, mrmw} {
		r.SetSink(sink)
	}
	var dst benchEntry
	for _, c := range []struct {
		name string
		op   func(p *sched.Proc)
	}{
		{"step", func(p *sched.Proc) { p.Step() }},
		{"swmr/read", func(p *sched.Proc) { _ = swmr.Read(p) }},
		{"swmr/write", func(p *sched.Proc) { swmr.Write(p, val) }},
		{"toggled/read", func(p *sched.Proc) { _ = tog.Read(p) }},
		{"toggled/read-to", func(p *sched.Proc) { _ = tog.ReadTo(p, &dst) }},
		{"toggled/read-toggle", func(p *sched.Proc) { _ = tog.ReadTo(p, nil) }},
		{"toggled/write", func(p *sched.Proc) { tog.Write(p, val) }},
		{"2w2r/read", func(p *sched.Proc) { _ = d2w.Read(p) }},
		{"2w2r/write", func(p *sched.Proc) { d2w.Write(p, true) }},
		{"bloom/read", func(p *sched.Proc) { _ = bloom.Read(p) }},
		{"bloom/write", func(p *sched.Proc) { bloom.Write(p, true) }},
		{"mrmw/read", func(p *sched.Proc) { _ = mrmw.Read(p) }},
		{"mrmw/write", func(p *sched.Proc) { mrmw.Write(p, 1) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			_, err := sched.Run(sched.Config{N: 1, Seed: 1}, func(p *sched.Proc) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.op(p)
				}
				b.StopTimer()
			})
			if err != nil {
				b.Fatal(err)
			}
			sink.Flush()
		})
	}
}
