package core

import (
	"sync/atomic"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/pad"
	"github.com/dsrepro/consensus/internal/register"
	"github.com/dsrepro/consensus/internal/scan"
	"github.com/dsrepro/consensus/internal/sched"
	"github.com/dsrepro/consensus/internal/walk"
)

// UEntry is the register value of the Aspnes–Herlihy-style unbounded
// baseline: an explicit (unbounded) round number and an unbounded strip of
// unbounded coin counters, one slot per round. This is the memory layout the
// paper's contribution eliminates.
type UEntry struct {
	Pref  int8
	Round int64
	// Strip[r-1] is the process's contribution to the shared coin of round r.
	// It only ever grows.
	Strip []int
}

// Clone returns a deep copy safe to mutate.
func (e UEntry) Clone() UEntry {
	e.Strip = append([]int(nil), e.Strip...)
	return e
}

// AHUnbounded is the unbounded polynomial-time baseline ([AH88]-style): the
// same decide/adopt/flip structure as the bounded protocol, but rounds are
// plain integers and every round has its own fresh unbounded coin counter.
type AHUnbounded struct {
	cfg    Config
	params walk.Params // M unbounded
	mem    scan.Memory[UEntry]

	rounds   []pad.Int64
	flips    []pad.Int64
	maxAbs   atomic.Int64
	maxRound atomic.Int64
	stripLen atomic.Int64

	// coins[i] is pid i's reused coin-assembly scratch (owner-only access).
	coins [][]int

	instruments
}

// NewAHUnbounded builds an unbounded-baseline instance. Config.M is ignored:
// counters are always unbounded.
func NewAHUnbounded(cfg Config) (*AHUnbounded, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	params := walk.Params{N: cfg.N, B: cfg.B} // M=0: unbounded
	if err := params.Validate(); err != nil {
		return nil, err
	}
	factory := register.DirectFactory
	if cfg.UseBloomArrows {
		factory = register.BloomFactory
	}
	mem, err := scan.New[UEntry](cfg.MemKind, cfg.N, factory)
	if err != nil {
		return nil, err
	}
	u := &AHUnbounded{
		cfg:    cfg,
		params: params,
		mem:    mem,
		rounds: make([]pad.Int64, cfg.N),
		flips:  make([]pad.Int64, cfg.N),
		coins:  make([][]int, cfg.N),
	}
	for i := range u.coins {
		u.coins[i] = make([]int, cfg.N)
	}
	return u, nil
}

// Name implements Protocol.
func (u *AHUnbounded) Name() string { return "ah-unbounded" }

// install implements Protocol (see Bounded.install). The monitor's
// coin-range probe stays dormant here (counters are genuinely unbounded) but
// the scan, register and end-of-instance probes all apply. The static space
// layout is pref + round per process (core); everything else — the explicit
// round number, the per-round coin counters and the strip itself — is
// unbounded, which is exactly what the meters exist to show: inc adds strip
// words online as the strip grows, and the round/counter magnitudes are
// measured at their write sites.
func (u *AHUnbounded) install(in instruments) {
	u.instruments = in
	installMemory(u.mem, in)
	in.mon.SetStateFn(u.captureState)
	m := in.spc
	if m == nil {
		return
	}
	n := int64(u.cfg.N)
	m.AddWords(space.LayerCore, n*2) // pref + round
	m.DeclareDomain(space.LayerCore, 3)
	m.DeclareUnbounded(space.LayerCore)  // explicit round numbers
	m.DeclareUnbounded(space.LayerWalk)  // no ±(M+1) clamp
	m.DeclareUnbounded(space.LayerStrip) // one slot per round, forever
}

// captureState snapshots the published state for flight dumps.
func (u *AHUnbounded) captureState() audit.State {
	pk, ok := u.mem.(interface{ PeekSlot(int) UEntry })
	if !ok {
		return audit.State{}
	}
	n := u.cfg.N
	st := audit.State{
		Prefs:  make([]int, n),
		Rounds: make([]int64, n),
		Coins:  make([]int, n),
		Strips: make([][]int, n),
	}
	for i := 0; i < n; i++ {
		e := pk.PeekSlot(i)
		st.Prefs[i] = int(e.Pref)
		st.Rounds[i] = e.Round
		if e.Round >= 1 && int(e.Round) <= len(e.Strip) {
			st.Coins[i] = e.Strip[e.Round-1]
		}
		st.Strips[i] = append([]int(nil), e.Strip...)
	}
	return st
}

// Reset restores the instance to its initial state for pooling (core.Arena),
// reporting whether the memory stack supported it. Call only between runs.
func (u *AHUnbounded) Reset() bool {
	r, ok := u.mem.(interface{ Reset() bool })
	if !ok || !r.Reset() {
		return false
	}
	for i := range u.rounds {
		u.rounds[i].Store(0)
		u.flips[i].Store(0)
	}
	u.maxAbs.Store(0)
	u.maxRound.Store(0)
	u.stripLen.Store(0)
	return true
}

// PeekEntry returns the current register value of process j without a
// scheduler step — a hook for protocol-aware ("strong") adversaries and
// metrics. Returns the zero entry if the memory implementation does not
// support peeking.
func (u *AHUnbounded) PeekEntry(j int) UEntry {
	if p, ok := u.mem.(interface{ PeekSlot(int) UEntry }); ok {
		return p.PeekSlot(j)
	}
	return UEntry{}
}

// Metrics implements Protocol.
func (u *AHUnbounded) Metrics() Metrics {
	m := Metrics{
		Rounds:     make([]int64, u.cfg.N),
		CoinFlips:  make([]int64, u.cfg.N),
		MaxAbsCoin: u.maxAbs.Load(),
		MaxRound:   u.maxRound.Load(),
		StripLen:   u.stripLen.Load(),
	}
	for i := 0; i < u.cfg.N; i++ {
		m.Rounds[i] = u.rounds[i].Load()
		m.CoinFlips[i] = u.flips[i].Load()
	}
	return m
}

// coinValue sums every process's contribution to round r's coin, assembling
// the counter array into pid i's reused scratch.
func (u *AHUnbounded) coinValue(i int, view []UEntry, r int64) walk.Outcome {
	c := u.coins[i]
	for j, ent := range view {
		if int(r) <= len(ent.Strip) {
			c[j] = ent.Strip[r-1]
		} else {
			c[j] = 0
		}
	}
	return u.params.Value(c)
}

// leaders returns the maximal round and whether all processes at it share one
// non-Bottom preference (and that preference).
func uLeaders(view []UEntry) (rmax int64, agree bool, v int8) {
	for _, ent := range view {
		if ent.Round > rmax {
			rmax = ent.Round
		}
	}
	v = Bottom
	for _, ent := range view {
		if ent.Round != rmax {
			continue
		}
		if ent.Pref == Bottom {
			return rmax, false, Bottom
		}
		if v == Bottom {
			v = ent.Pref
		} else if v != ent.Pref {
			return rmax, false, Bottom
		}
	}
	return rmax, v != Bottom, v
}

// inc advances the process's round, growing the strip with a fresh counter.
func (u *AHUnbounded) inc(p *sched.Proc, st UEntry) UEntry {
	st = st.Clone()
	st.Round++
	for int64(len(st.Strip)) < st.Round {
		st.Strip = append(st.Strip, 0)
		u.spc.AddWords(space.LayerStrip, 1) // online growth: the unbounded strip
	}
	u.spc.NoteValue(space.LayerCore, st.Round)
	u.rounds[p.ID()].Add(1)
	atomicMax(&u.maxRound, st.Round)
	atomicMax(&u.stripLen, int64(len(st.Strip)))
	u.sink.GaugeMax(obs.GaugeMaxRound, st.Round)
	u.sink.GaugeMax(obs.GaugeMaxStripLen, int64(len(st.Strip)))
	u.sink.Emit(obs.Event{Step: p.Now(), Pid: p.ID(), Kind: obs.CoreRound, Round: st.Round})
	return st
}

// Run implements Protocol for one process.
func (u *AHUnbounded) Run(p *sched.Proc, input int) int {
	i := p.ID()
	st := UEntry{Pref: int8(input)}
	span := obs.StartPhaseSpan(p.Steps())
	if u.prof.Enabled() {
		span.Observe(u.prof)
	}
	span.To(u.sink, obs.PhaseStrip, i, p.Now(), p.Steps())
	st = u.inc(p, st)
	u.mem.Write(p, st)
	u.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreStart, Round: st.Round, Detail: "pref=" + prefString(st.Pref)})
	span.To(u.sink, obs.PhasePrefer, i, p.Now(), p.Steps())

	for {
		view := u.mem.Scan(p)
		normalizeUView(view)
		view[i] = st

		rmax, agree, v := uLeaders(view)

		// Decide: leading, and every disagreer at least K rounds behind.
		if st.Pref != Bottom && st.Round == rmax {
			ok := true
			for j, ent := range view {
				if j == i || ent.Pref == st.Pref {
					continue
				}
				if ent.Round > st.Round-int64(u.cfg.K) {
					ok = false
					break
				}
			}
			if ok {
				span.To(u.sink, obs.PhaseDecide, i, p.Now(), p.Steps())
				u.sink.Observe(obs.HistStepsToDecide, p.Steps())
				u.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreDecide, Round: st.Round, Detail: prefString(st.Pref)})
				span.Finish(u.sink, i, p.Now(), p.Steps())
				return int(st.Pref)
			}
		}

		// Adopt the leaders' common value.
		if agree {
			span.To(u.sink, obs.PhaseStrip, i, p.Now(), p.Steps())
			st = u.inc(p, st)
			st.Pref = v
			u.mem.Write(p, st)
			span.To(u.sink, obs.PhasePrefer, i, p.Now(), p.Steps())
			continue
		}

		// Withdraw a conflicting preference.
		if st.Pref != Bottom {
			st.Pref = Bottom // value field: no clone needed
			u.mem.Write(p, st)
			continue
		}

		// Drive the coin of the current round.
		switch cv := u.coinValue(i, view, st.Round); cv {
		case walk.Undecided:
			span.To(u.sink, obs.PhaseCoin, i, p.Now(), p.Steps())
			st = st.Clone()
			st.Strip[st.Round-1] = u.params.StepCounterAudited(st.Strip[st.Round-1], p, u.sink, u.mon)
			u.spc.NoteValue(space.LayerWalk, int64(st.Strip[st.Round-1]))
			u.flips[i].Add(1)
			atomicMax(&u.maxAbs, int64(abs(st.Strip[st.Round-1])))
			u.sink.GaugeMax(obs.GaugeMaxAbsCoin, int64(abs(st.Strip[st.Round-1])))
			u.mem.Write(p, st)
			span.To(u.sink, obs.PhasePrefer, i, p.Now(), p.Steps())
		default:
			span.To(u.sink, obs.PhaseStrip, i, p.Now(), p.Steps())
			st = u.inc(p, st)
			st.Pref = outcomeBit(cv)
			u.mem.Write(p, st)
			span.To(u.sink, obs.PhasePrefer, i, p.Now(), p.Steps())
		}
	}
}
