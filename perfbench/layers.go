package main

import (
	"fmt"
	"time"

	"github.com/dsrepro/consensus/internal/core"
	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/register"
	"github.com/dsrepro/consensus/internal/scan"
	"github.com/dsrepro/consensus/internal/sched"
	"github.com/dsrepro/consensus/internal/strip"
	"github.com/dsrepro/consensus/internal/walk"
)

// Isolated layer drivers. Each times one layer's operation alone, at the
// workload's shape (n, dispatch engine, substrate), with a metrics-only sink
// installed as in a batch. Every figure is the median over driverReps
// repetitions of a fixed amount of work.
const (
	driverReps = 5
	driverOps  = 100_000 // steps or operations per repetition
	driverRuns = 100     // whole runs or calls per repetition for the µs-scale drivers
)

// isolated holds the drivers' results in ns (or µs where named).
type isolated struct {
	selfStep, seqSelfStep, nativeSelfStep float64
	consult, handoff                      float64
	spawnUS, nativeSpawnUS                float64
	swmrRead, swmrWrite                   float64
	twoRead, twoWrite                     float64
	mrmwRead, mrmwWrite                   float64
	nativeRead, nativeWrite               float64
	arenaUS                               float64
	cleanScan, walkStep                   float64
	incrowUS, decodeHit                   float64
	count                                 float64
}

// perOp runs f, which performs ops operations, driverReps times and returns
// the median nanoseconds per operation.
func perOp(ops int, f func()) float64 {
	xs := make([]float64, driverReps)
	for i := range xs {
		t0 := time.Now()
		f()
		xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	return median(xs)
}

// solo runs body as the only process of a run on the given engine.
func solo(native, commuting bool, sink *obs.Sink, body func(p *sched.Proc)) error {
	cfg := sched.Config{N: 1, Adversary: sched.NewRandom(1), Commuting: commuting, Sink: sink}
	var err error
	if native {
		_, err = sched.NewNative(sched.NativeOptions{}).Run(cfg, body)
	} else {
		_, err = sched.Run(cfg, body)
	}
	return err
}

// soloPerOp times driverOps calls of op inside one solo run.
func soloPerOp(native, commuting bool, sink *obs.Sink, op func(p *sched.Proc)) (float64, error) {
	var err error
	ns := perOp(driverOps, func() {
		if e := solo(native, commuting, sink, func(p *sched.Proc) {
			for i := 0; i < driverOps; i++ {
				op(p)
			}
		}); e != nil {
			err = e
		}
	})
	return ns, err
}

// measureLayers runs every driver that applies to the workload. The scan,
// walk and strip drivers are skipped for the anonymous protocol, which uses
// none of those layers.
func measureLayers(w workload) (isolated, error) {
	var iso isolated
	var errs []error
	sink := obs.NewSink(nil)
	step := func(p *sched.Proc) { p.Step() }
	keep := func(ns float64, err error) float64 {
		if err != nil {
			errs = append(errs, err)
		}
		return ns
	}

	iso.seqSelfStep = keep(soloPerOp(false, false, sink, step))
	iso.nativeSelfStep = keep(soloPerOp(true, false, sink, step))
	switch {
	case w.native:
		iso.selfStep = iso.nativeSelfStep
	case w.commuting:
		iso.selfStep = keep(soloPerOp(false, true, sink, step))
	default:
		iso.selfStep = iso.seqSelfStep
	}

	adv := sched.NewRandom(1)
	waiting := make([]int, w.n)
	for i := range waiting {
		waiting[i] = i
	}
	iso.consult = perOp(driverOps, func() {
		for i := 0; i < driverOps; i++ {
			adv.Next(waiting, int64(i))
		}
	})

	// Round-robin over n processes that only step: every grant is a
	// cross-process handoff on the sequential engine.
	rr := perOp(driverOps, func() {
		cfg := sched.Config{N: w.n, Adversary: sched.NewRoundRobin(), Sink: sink}
		if _, err := sched.Run(cfg, func(p *sched.Proc) {
			for i := 0; i < driverOps/w.n; i++ {
				p.Step()
			}
		}); err != nil {
			errs = append(errs, err)
		}
	})
	iso.handoff = rr - iso.seqSelfStep

	empty := func(*sched.Proc) {}
	iso.spawnUS = perOp(driverRuns, func() {
		for i := 0; i < driverRuns; i++ {
			cfg := sched.Config{N: w.n, Adversary: sched.NewRandom(1), Commuting: w.commuting, Sink: sink}
			if _, err := sched.Run(cfg, empty); err != nil {
				errs = append(errs, err)
			}
		}
	}) / 1e3
	native := sched.NewNative(sched.NativeOptions{})
	iso.nativeSpawnUS = perOp(driverRuns, func() {
		for i := 0; i < driverRuns; i++ {
			if _, err := native.Run(sched.Config{N: w.n, Sink: sink}, empty); err != nil {
				errs = append(errs, err)
			}
		}
	}) / 1e3

	// Register operations, solo, minus the engine's own step.
	entry := core.NewEntry(w.n, 2)
	swmr := register.NewSWMR(0, entry)
	swmr.SetSink(sink)
	iso.swmrRead = keep(soloPerOp(false, false, sink, func(p *sched.Proc) { swmr.Read(p) })) - iso.seqSelfStep
	iso.swmrWrite = keep(soloPerOp(false, false, sink, func(p *sched.Proc) { swmr.Write(p, entry) })) - iso.seqSelfStep
	two := register.NewDirect2W(0, 1, false)
	two.SetSink(sink)
	iso.twoRead = keep(soloPerOp(false, false, sink, func(p *sched.Proc) { two.Read(p) })) - iso.seqSelfStep
	iso.twoWrite = keep(soloPerOp(false, false, sink, func(p *sched.Proc) { two.Write(p, true) })) - iso.seqSelfStep
	mrmw := register.NewDirectMRMW[int8](0, false)
	mrmw.SetSink(sink)
	iso.mrmwRead = keep(soloPerOp(false, false, sink, func(p *sched.Proc) { mrmw.Read(p) })) - iso.seqSelfStep
	iso.mrmwWrite = keep(soloPerOp(false, false, sink, func(p *sched.Proc) { mrmw.Write(p, 1) })) - iso.seqSelfStep
	nat := register.NewSWMR(0, entry)
	nat.SetSink(sink)
	nat.SetNative(true)
	iso.nativeRead = keep(soloPerOp(true, false, sink, func(p *sched.Proc) { nat.Read(p) })) - iso.nativeSelfStep
	iso.nativeWrite = keep(soloPerOp(true, false, sink, func(p *sched.Proc) { nat.Write(p, entry) })) - iso.nativeSelfStep

	arena := core.NewArena()
	cfg := core.Config{N: w.n, MemKind: scan.KindArrow}
	if _, err := arena.Protocol(w.kind, cfg); err != nil {
		errs = append(errs, err)
	}
	iso.arenaUS = perOp(driverRuns, func() {
		for i := 0; i < driverRuns; i++ {
			if _, err := arena.Protocol(w.kind, cfg); err != nil {
				errs = append(errs, err)
			}
		}
	}) / 1e3

	iso.count = perOp(driverOps, func() {
		for i := 0; i < driverOps; i++ {
			sink.Count(obs.RegSWMRRead)
		}
	})

	if w.kind != core.KindAnonymous {
		if err := measureBoundedLayers(w, sink, &iso); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		return iso, fmt.Errorf("layer drivers: %v", errs[0])
	}
	return iso, nil
}

// measureBoundedLayers times the scannable memory, the walk and the strip at
// the workload's shape.
func measureBoundedLayers(w workload, sink *obs.Sink, iso *isolated) error {
	const scans = driverOps / 100
	mem := scan.NewArrow[core.Entry](w.n, register.DirectFactory)
	mem.SetSink(sink)
	mem.SetNative(w.native)
	mem.SetEpoch(w.commuting)
	var err error
	iso.cleanScan = perOp(scans, func() {
		if e := solo(w.native, w.commuting, sink, func(p *sched.Proc) {
			for i := 0; i < scans; i++ {
				mem.Scan(p)
			}
		}); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}

	params := walk.Params{N: w.n, B: 4}
	params.M = params.DefaultM()
	iso.walkStep = perOp(driverOps, func() {
		if e := solo(false, false, sink, func(p *sched.Proc) {
			c := 0
			for i := 0; i < driverOps; i++ {
				c = params.StepCounterTraced(c, p, sink)
			}
		}); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}

	// Two legal counter matrices: all processes tied, and process 0 one
	// round ahead. Alternating them misses the decode memo every call.
	const k = 2
	tied := strip.CounterMatrix(w.n)
	ahead := strip.CounterMatrix(w.n)
	row, err := strip.IncRow(0, tied, k)
	if err != nil {
		return err
	}
	copy(ahead[0], row)
	g := strip.NewGraph(w.n, k)
	iso.incrowUS = perOp(driverRuns, func() {
		if e := solo(false, false, sink, func(p *sched.Proc) {
			for i := 0; i < driverRuns; i++ {
				e := tied
				if i%2 == 1 {
					e = ahead
				}
				if _, ierr := strip.IncRowScratch(1, e, k, g, p, sink); ierr != nil {
					err = ierr
				}
			}
		}); e != nil {
			err = e
		}
	}) / 1e3
	if err != nil {
		return err
	}
	iso.decodeHit = perOp(driverOps, func() {
		for i := 0; i < driverOps; i++ {
			if _, derr := strip.DecodeInto(g, tied, k); derr != nil {
				err = derr
			}
		}
	})
	return err
}
