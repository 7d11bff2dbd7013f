package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/dsrepro/consensus"
	"github.com/dsrepro/consensus/internal/core"
	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/scan"
	"github.com/dsrepro/consensus/internal/sched"
)

// The traced run replays each chunk twice through core.RunBatch with the
// instances SolveBatch would build: once plain (untraced) and once with every
// instance wrapped in a consult-counting adversary and a timing substrate
// (traced). The two alternate which goes first, so neither always runs on the
// other's warm caches. The first chunk also runs through SolveBatch itself,
// which anchors the hand-built instances to the public API. Spans live in
// memory and are written out when the run ends.

// clock reads nanoseconds since the traced run's epoch on the monotonic
// clock.
type clock struct{ epoch time.Time }

func (c clock) now() int64 { return time.Since(c.epoch).Nanoseconds() }

// gapStats aggregates the gaps between consecutive grants, split by whether
// the earlier grant kept the token on its holder (self) or handed it to
// another process (cross). One sum per kind, not one span per grant. Under
// sequential dispatch every grant is an adversary consult; under commuting
// dispatch most grants extend a run or pass the token along a batch.
type gapStats struct {
	selfN, crossN   int64
	selfNS, crossNS int64
}

func (s *gapStats) add(o gapStats) {
	s.selfN += o.selfN
	s.crossN += o.crossN
	s.selfNS += o.selfNS
	s.crossNS += o.crossNS
}

// handoffNS is the mean gap after a cross grant minus the mean gap after a
// self grant: what moving the token costs over keeping it.
func (s gapStats) handoffNS() float64 {
	if s.crossN == 0 || s.selfN == 0 {
		return 0
	}
	return float64(s.crossNS)/float64(s.crossN) - float64(s.selfNS)/float64(s.selfN)
}

// countingAdv forwards every consult to the instance's own adversary and
// counts the consults. The engine serializes consults, so it needs no
// locking.
type countingAdv struct {
	inner    sched.Adversary
	consults int64
}

func (a *countingAdv) Next(waiting []int, step int64) int {
	a.consults++
	return a.inner.Next(waiting, step)
}

// countingExtAdv is countingAdv for an adversary that implements
// sched.Extender. The commuting engine batches only behind adversaries that
// do, so the wrapper must forward Eligible exactly when the wrapped
// adversary has it.
type countingExtAdv struct {
	*countingAdv
	ext sched.Extender
}

func (a countingExtAdv) Eligible(pid int, step int64) bool { return a.ext.Eligible(pid, step) }

// wrapAdversary returns the wrapper to install and its counter.
func wrapAdversary(inner sched.Adversary) (sched.Adversary, *countingAdv) {
	a := &countingAdv{inner: inner}
	if e, ok := inner.(sched.Extender); ok {
		return countingExtAdv{a, e}, a
	}
	return a, a
}

// timingSubstrate runs the instance on its real substrate, records the run
// as a span, and times the gaps between grants through the engine's OnStep
// hook (the native substrate has no grants and never calls it).
type timingSubstrate struct {
	inner      sched.Substrate
	clk        clock
	start, end int64
	gaps       gapStats
}

func (s *timingSubstrate) Name() string          { return s.inner.Name() }
func (s *timingSubstrate) NativeRegisters() bool { return s.inner.NativeRegisters() }

func (s *timingSubstrate) Run(cfg sched.Config, body func(*sched.Proc)) (sched.Result, error) {
	last, lastAt := -1, int64(0)
	cross := false
	cfg.OnStep = func(pid int, _ int64) {
		now := s.clk.now()
		if last >= 0 {
			if gap := now - lastAt; cross {
				s.gaps.crossN++
				s.gaps.crossNS += gap
			} else {
				s.gaps.selfN++
				s.gaps.selfNS += gap
			}
			cross = pid != last
		}
		last, lastAt = pid, now
	}
	s.start = s.clk.now()
	res, err := s.inner.Run(cfg, body)
	s.end = s.clk.now()
	return res, err
}

// randomSalt is how consensus.Schedule derives a RandomSchedule adversary
// from an instance seed: sched.NewRandom(seed ^ randomSalt). The replays
// build their instances by hand; the comparison with SolveBatch on the first
// chunk fails if this copy ever drifts.
const randomSalt = 0x5ca1ab1e

// replay is one chunk run through core.RunBatch.
type replay struct {
	outs []core.BatchOutcome
	advs []*countingAdv     // instrumented replays only
	subs []*timingSubstrate // instrumented replays only
	span span               // the batch
}

// runReplay runs chunk c through core.RunBatch with the instances SolveBatch
// would build. With instrument set, every instance's adversary and substrate
// are wrapped.
func (w workload) runReplay(c chunkInput, clk clock, sink *obs.Sink, instrument bool) replay {
	insts := make([]core.Instance, len(c.inputs))
	var r replay
	if instrument {
		r.advs = make([]*countingAdv, len(insts))
		r.subs = make([]*timingSubstrate, len(insts))
	}
	for k := range insts {
		seed := consensus.InstanceSeed(c.seed, k)
		adv := sched.NewRandom(seed ^ randomSalt)
		var sub sched.Substrate
		if w.native {
			sub = sched.NewNative(sched.NativeOptions{})
		}
		if instrument {
			if sub == nil {
				sub = sched.Simulated()
			}
			ts := &timingSubstrate{inner: sub, clk: clk}
			adv, r.advs[k] = wrapAdversary(adv)
			r.subs[k], sub = ts, ts
		}
		insts[k] = core.Instance{
			Kind:      w.kind,
			Cfg:       core.Config{MemKind: scan.KindArrow},
			Inputs:    c.inputs[k],
			Seed:      seed,
			Adversary: adv,
			MaxSteps:  w.budget(),
			Substrate: sub,
			Commuting: w.commuting,
		}
	}
	r.span.Start = clk.now()
	r.outs = core.RunBatch(w.parallel(), sink, insts)
	r.span.End = clk.now()
	return r
}

// result reads the outcomes the way SolveBatch reports them.
func (r replay) result() consensus.BatchResult {
	m := len(r.outs)
	res := consensus.BatchResult{Decisions: make([]int, m), Steps: make([]int64, m),
		Errors: make([]error, m), Latencies: make([]int64, m)}
	for k, bo := range r.outs {
		res.Decisions[k], res.Latencies[k] = -1, bo.ElapsedNS
		if bo.Err != nil {
			res.Errors[k] = bo.Err
			continue
		}
		res.Steps[k] = bo.Out.Sched.Steps
		res.Errors[k] = bo.Out.Err
		if d, err := bo.Out.Agreement(); err != nil {
			res.Errors[k] = err
		} else {
			res.Decisions[k] = d
		}
	}
	return res
}

// differ counts the instances whose (decision, steps) differ between two
// runs of the same chunk. Native runs are not deterministic and are not compared.
func (w workload) differ(a, b consensus.BatchResult) int {
	if w.native {
		return 0
	}
	n := 0
	for k := range a.Steps {
		if a.Decisions[k] != b.Decisions[k] || a.Steps[k] != b.Steps[k] {
			n++
		}
	}
	return n
}

// tracedTotals accumulates the traced run.
type tracedTotals struct {
	untraced, traced runTotals
	consults         int64
	gaps             gapStats
	spans            []span
	batchSelfNS      int64
	apiMismatches    int // first chunk: SolveBatch against the untraced replay
	mismatches       int // every chunk: the traced replay against the untraced one
}

// traced is the per-layer run: isolated layer drivers, then chunks replayed
// untraced and traced until the time is up.
func traced(w workload, seed int64, seconds int) (report, error) {
	if err := warmup(w); err != nil {
		return report{}, err
	}
	iso, err := measureLayers(w)
	if err != nil {
		return report{}, err
	}

	clk := clock{epoch: time.Now()}
	sink := obs.NewSink(nil)
	rng := rand.New(rand.NewSource(seed))
	var t tracedTotals
	start := time.Now()
	for chunks := 0; time.Since(start) < time.Duration(seconds)*time.Second || chunks == 0; chunks++ {
		c := w.nextChunk(rng)
		var anchor consensus.BatchResult
		if chunks == 0 {
			if anchor, err = consensus.SolveBatch(w.batchConfig(c)); err != nil {
				return report{}, err
			}
		}
		// Each replay gets a metrics-only sink, as SolveBatch installs one;
		// the traced replays share one so the run's counts add up.
		var plain, instrumented replay
		if chunks%2 == 0 {
			plain = w.runReplay(c, clk, obs.NewSink(nil), false)
			instrumented = w.runReplay(c, clk, sink, true)
		} else {
			instrumented = w.runReplay(c, clk, sink, true)
			plain = w.runReplay(c, clk, obs.NewSink(nil), false)
		}
		res := plain.result()
		if chunks == 0 {
			t.apiMismatches = w.differ(anchor, res)
		}
		t.untraced.addBatch(w, c, res, time.Duration(plain.span.dur()))
		t.addTraced(w, c, instrumented, res)
	}

	t.untraced.printChecks(w, "untraced")
	t.traced.printChecks(w, "traced")
	if !w.native {
		fmt.Printf("replay check: SolveBatch and the untraced replay differ on %d of the first %d instances\n",
			t.apiMismatches, len(t.untraced.first))
		fmt.Printf("replay check: the traced replay differs from the untraced one on %d of %d instances\n",
			t.mismatches, t.traced.instances)
	}
	if path, err := writeSpans(w, seed, t.spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	} else {
		fmt.Printf("spans %d written to %s\n", len(t.spans), path)
	}

	r := t.layerReport(w, iso, sink.Registry().Snapshot())
	r.Correct = t.untraced.correct(w) && t.traced.correct(w) && t.apiMismatches == 0 && t.mismatches == 0
	r.Attempted = t.traced.instances
	r.Failed = t.traced.fails.total()
	return r, nil
}

// addTraced folds one traced chunk in: correctness, the comparison with the
// untraced replay, consult and gap sums, and the batch, instance and
// sched.run spans.
func (t *tracedTotals) addTraced(w workload, c chunkInput, tr replay, untraced consensus.BatchResult) {
	batch := tr.span
	batch.ID, batch.Parent, batch.Name, batch.Instance = len(t.spans), -1, "consensus.batch", -1
	t.spans = append(t.spans, batch)
	children := make([]span, 0, len(tr.outs))
	for k, bo := range tr.outs {
		t.consults += tr.advs[k].consults
		sub := tr.subs[k]
		t.gaps.add(sub.gaps)
		// RunBatch reports each instance's latency but not its start; the
		// instance ends a few hundred ns after its sched.Run returns (post-run
		// accounting), so the span is placed to end there.
		inst := span{ID: len(t.spans), Parent: batch.ID, Name: "core.instance", Instance: t.traced.instances + k,
			Start: sub.end - bo.ElapsedNS, End: sub.end}
		run := span{ID: inst.ID + 1, Parent: inst.ID, Name: "sched.run", Instance: inst.Instance,
			Start: sub.start, End: sub.end}
		t.spans = append(t.spans, inst, run)
		children = append(children, inst)
	}
	t.batchSelfNS += selfTime(batch, children)
	res := tr.result()
	t.mismatches += w.differ(untraced, res)
	t.traced.addBatch(w, c, res, time.Duration(batch.dur()))
}

// writeSpans writes the spans as JSON lines next to the benchmark binary.
func writeSpans(w workload, seed int64, spans []span) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	path := filepath.Join(filepath.Dir(exe), fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerReport derives the per-layer metrics from the traced run's registry,
// sums and spans and from the isolated drivers.
func (t *tracedTotals) layerReport(w workload, iso isolated, snap obs.Snapshot) report {
	ctr := func(k obs.Kind) float64 { return float64(snap.Counters[k.ID()]) }
	inst := float64(t.traced.instances)
	steps := float64(t.traced.steps)
	var r report

	r.add("consensus.batch_overhead_us", float64(t.batchSelfNS)/inst/1e3, "us")

	r.add("core.arena_reuse_us", iso.arenaUS, "us")
	var phaseTotal float64
	for ph := obs.PhaseID(0); ph < obs.NumPhases; ph++ {
		phaseTotal += float64(snap.Hists[ph.HistID().String()].Sum)
	}
	for _, ph := range []obs.PhaseID{obs.PhasePrefer, obs.PhaseCoin, obs.PhaseStrip} {
		r.add("core.phase_share."+ph.String(), ratio(float64(snap.Hists[ph.HistID().String()].Sum), phaseTotal), "share")
	}
	r.add("core.rounds_per_instance", ctr(obs.CoreRound)/inst, "count")

	handoffs := float64(t.gaps.crossN)
	r.add("sched.handoff_share", ratio(handoffs, steps), "share")
	r.add("sched.handoff_ns", t.gaps.handoffNS(), "ns")
	r.add("sched.handoff_ns.isolated", iso.handoff, "ns")
	r.add("sched.self_step_ns", iso.selfStep, "ns")
	r.add("sched.consult_ns", iso.consult, "ns")
	r.add("sched.steps_per_consult", ratio(steps, float64(t.consults)), "steps")
	r.add("sched.spawn_us", iso.spawnUS, "us")
	r.add("sched.native_spawn_us", iso.nativeSpawnUS, "us")

	regOps := map[obs.Kind]float64{}
	var regTotal float64
	for _, k := range []obs.Kind{obs.RegSWMRRead, obs.RegSWMRWrite, obs.Reg2WRead, obs.Reg2WWrite,
		obs.RegBloomRead, obs.RegBloomWrite, obs.RegMRMWRead, obs.RegMRMWWrite} {
		regOps[k] = ctr(k)
		regTotal += ctr(k)
	}
	r.add("register.ops_per_step", ratio(regTotal, steps), "ops")
	r.add("register.swmr_read_ns", iso.swmrRead, "ns")
	r.add("register.swmr_write_ns", iso.swmrWrite, "ns")
	r.add("register.2w2r_read_ns", iso.twoRead, "ns")
	r.add("register.2w2r_write_ns", iso.twoWrite, "ns")
	r.add("register.mrmw_read_ns", iso.mrmwRead, "ns")
	r.add("register.mrmw_write_ns", iso.mrmwWrite, "ns")
	r.add("register.native_read_ns", iso.nativeRead, "ns")
	r.add("register.native_write_ns", iso.nativeWrite, "ns")

	r.add("scan.retry_ratio", ratio(ctr(obs.ScanRetry), ctr(obs.ScanClean)), "retries")
	r.add("scan.scans_per_instance", ctr(obs.ScanClean)/inst, "count")
	r.add("scan.clean_scan_ns", iso.cleanScan, "ns")

	r.add("walk.steps_per_instance", ctr(obs.WalkStep)/inst, "count")
	r.add("walk.step_ns", iso.walkStep, "ns")

	r.add("strip.moves_per_instance", ctr(obs.StripMove)/inst, "count")
	r.add("strip.incrow_us", iso.incrowUS, "us")
	r.add("strip.decode_hit_ns", iso.decodeHit, "ns")

	var counts float64
	for _, c := range snap.Counters {
		counts += float64(c)
	}
	r.add("obs.counts_per_step", ratio(counts, steps), "counts")
	r.add("obs.count_ns", iso.count, "ns")

	untracedNSPerStep := ratio(float64(t.untraced.wall.Nanoseconds()), float64(t.untraced.steps))
	tracedNSPerStep := ratio(float64(t.traced.wall.Nanoseconds()), steps)
	r.add("trace.overhead_share", ratio(tracedNSPerStep, untracedNSPerStep)-1, "share")

	// The cost model: per instance, a spawn and an arena reset, then per step
	// the engine's solo step, per handoff the isolated handoff, per register
	// operation its solo cost, per walk step and strip move their bookkeeping,
	// and per remaining registry count one Sink.Count. Register, walk and
	// strip figures already include their own count.
	var regNS float64
	if w.native {
		regNS = (regOps[obs.RegSWMRRead]+regOps[obs.Reg2WRead])*iso.nativeRead +
			(regOps[obs.RegSWMRWrite]+regOps[obs.Reg2WWrite])*iso.nativeWrite
	} else {
		regNS = regOps[obs.RegSWMRRead]*iso.swmrRead + regOps[obs.RegSWMRWrite]*iso.swmrWrite +
			regOps[obs.Reg2WRead]*iso.twoRead + regOps[obs.Reg2WWrite]*iso.twoWrite +
			regOps[obs.RegMRMWRead]*iso.mrmwRead + regOps[obs.RegMRMWWrite]*iso.mrmwWrite
	}
	spawn := iso.spawnUS
	if w.native {
		spawn = iso.nativeSpawnUS
	}
	modelled := inst*(spawn+iso.arenaUS)*1e3 + steps*iso.selfStep + handoffs*iso.handoff + regNS +
		ctr(obs.WalkStep)*iso.walkStep + ctr(obs.StripMove)*iso.incrowUS*1e3 +
		(counts-regTotal-ctr(obs.WalkStep)-ctr(obs.StripMove)-ctr(obs.SchedGrant))*iso.count
	// The untraced replay ran the same instances the counts come from.
	var measured float64
	for _, l := range t.untraced.latencies {
		measured += float64(l)
	}
	r.add("model.unexplained_share", 1-ratio(modelled, measured), "share")
	return r
}
