package core

import (
	"sync"
	"sync/atomic"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/pad"
	"github.com/dsrepro/consensus/internal/register"
	"github.com/dsrepro/consensus/internal/scan"
	"github.com/dsrepro/consensus/internal/sched"
)

// Oracle models the Chor–Israeli–Li atomic coin-flip primitive: for each
// round there is one globally shared random bit; the first process to flip
// for a round draws it, and every later flipper for the same round observes
// the same bit. One flip is one atomic step. (This is exactly the "powerful
// atomic coin flip operation" whose availability [CIL87] assumes and whose
// absence motivates the rest of the literature.)
type Oracle struct {
	fp   int64 // footprint key: every flip mutates the shared bit store
	mu   sync.Mutex
	bits map[int64]int8
	spc  *space.Meter
}

// NewOracle returns an empty oracle.
func NewOracle() *Oracle {
	return &Oracle{fp: sched.NewFootprintKey(), bits: make(map[int64]int8)}
}

// Flip returns the shared random bit of the given round, drawing it from the
// caller's randomness if this is the first flip for that round.
func (o *Oracle) Flip(p *sched.Proc, round int64) int8 {
	p.DeclareWrite(o.fp)
	p.Step()
	o.mu.Lock()
	defer o.mu.Unlock()
	if b, ok := o.bits[round]; ok {
		return b
	}
	b := int8(p.Rand().Intn(2))
	o.bits[round] = b
	o.spc.AddWords(space.LayerWalk, 1) // the bit store grows one slot per round
	return b
}

// Rounds returns how many distinct rounds have been flipped (a space
// accounting hook: the oracle's state grows with rounds).
func (o *Oracle) Rounds() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.bits)
}

// Reset forgets all drawn bits (between runs only; the map is kept to reuse
// its buckets).
func (o *Oracle) Reset() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for r := range o.bits {
		delete(o.bits, r)
	}
}

// StrongCoin is the CIL-style baseline: the unbounded round structure of
// AHUnbounded with the Oracle primitive replacing the random-walk shared
// coin. Because flippers of one round always agree, conflicts die in O(1)
// expected rounds regardless of the adversary.
type StrongCoin struct {
	cfg    Config
	mem    scan.Memory[UEntry]
	oracle *Oracle

	rounds   []pad.Int64
	flips    []pad.Int64
	maxRound atomic.Int64

	instruments
}

// NewStrongCoin builds a strong-coin baseline instance. B and M are ignored.
func NewStrongCoin(cfg Config) (*StrongCoin, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
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
	return &StrongCoin{
		cfg:    cfg,
		mem:    mem,
		oracle: NewOracle(),
		rounds: make([]pad.Int64, cfg.N),
		flips:  make([]pad.Int64, cfg.N),
	}, nil
}

// Name implements Protocol.
func (s *StrongCoin) Name() string { return "strong-coin" }

// install implements Protocol (see Bounded.install). The oracle coin needs
// no storage mode: it is mutex-guarded and correct under real concurrency.
// Entries carry only a preference and an explicit round number; the oracle
// plays the shared coin's role, so its one-bit-per-flipped-round store is
// metered online on the walk layer (see Oracle.Flip).
func (s *StrongCoin) install(in instruments) {
	s.instruments = in
	installMemory(s.mem, in)
	in.mon.SetStateFn(s.captureState)
	s.oracle.spc = in.spc
	m := in.spc
	if m == nil {
		return
	}
	n := int64(s.cfg.N)
	m.AddWords(space.LayerCore, n*2) // pref + round
	m.DeclareDomain(space.LayerCore, 3)
	m.DeclareUnbounded(space.LayerCore) // explicit round numbers
	m.DeclareDomain(space.LayerWalk, 2) // oracle bits are 1 bit wide...
	// ...but their count is unbounded: AddWords in Flip records the growth.
}

// captureState snapshots the published state for flight dumps.
func (s *StrongCoin) captureState() audit.State {
	pk, ok := s.mem.(interface{ PeekSlot(int) UEntry })
	if !ok {
		return audit.State{}
	}
	n := s.cfg.N
	st := audit.State{Prefs: make([]int, n), Rounds: make([]int64, n)}
	for i := 0; i < n; i++ {
		e := pk.PeekSlot(i)
		st.Prefs[i] = int(e.Pref)
		st.Rounds[i] = e.Round
	}
	return st
}

// Reset restores the instance to its initial state for pooling (core.Arena),
// reporting whether the memory stack supported it. Call only between runs.
func (s *StrongCoin) Reset() bool {
	r, ok := s.mem.(interface{ Reset() bool })
	if !ok || !r.Reset() {
		return false
	}
	s.oracle.Reset()
	for i := range s.rounds {
		s.rounds[i].Store(0)
		s.flips[i].Store(0)
	}
	s.maxRound.Store(0)
	return true
}

// Metrics implements Protocol.
func (s *StrongCoin) Metrics() Metrics {
	m := Metrics{
		Rounds:    make([]int64, s.cfg.N),
		CoinFlips: make([]int64, s.cfg.N),
		MaxRound:  s.maxRound.Load(),
	}
	for i := 0; i < s.cfg.N; i++ {
		m.Rounds[i] = s.rounds[i].Load()
		m.CoinFlips[i] = s.flips[i].Load()
	}
	return m
}

func (s *StrongCoin) inc(p *sched.Proc, st UEntry) UEntry {
	st.Round++ // value field (the strong-coin entry never grows a strip)
	s.spc.NoteValue(space.LayerCore, st.Round)
	s.rounds[p.ID()].Add(1)
	atomicMax(&s.maxRound, st.Round)
	s.sink.GaugeMax(obs.GaugeMaxRound, st.Round)
	s.sink.Emit(obs.Event{Step: p.Now(), Pid: p.ID(), Kind: obs.CoreRound, Round: st.Round})
	return st
}

// Run implements Protocol for one process.
func (s *StrongCoin) Run(p *sched.Proc, input int) int {
	i := p.ID()
	st := UEntry{Pref: int8(input)}
	span := obs.StartPhaseSpan(p.Steps())
	if s.prof.Enabled() {
		span.Observe(s.prof)
	}
	span.To(s.sink, obs.PhaseStrip, i, p.Now(), p.Steps())
	st = s.inc(p, st)
	s.mem.Write(p, st)
	span.To(s.sink, obs.PhasePrefer, i, p.Now(), p.Steps())

	for {
		view := s.mem.Scan(p)
		normalizeUView(view)
		view[i] = st

		rmax, agree, v := uLeaders(view)

		if st.Pref != Bottom && st.Round == rmax {
			ok := true
			for j, ent := range view {
				if j == i || ent.Pref == st.Pref {
					continue
				}
				if ent.Round > st.Round-int64(s.cfg.K) {
					ok = false
					break
				}
			}
			if ok {
				span.To(s.sink, obs.PhaseDecide, i, p.Now(), p.Steps())
				s.sink.Observe(obs.HistStepsToDecide, p.Steps())
				s.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreDecide, Round: st.Round, Detail: prefString(st.Pref)})
				span.Finish(s.sink, i, p.Now(), p.Steps())
				return int(st.Pref)
			}
		}

		if agree {
			span.To(s.sink, obs.PhaseStrip, i, p.Now(), p.Steps())
			st = s.inc(p, st)
			st.Pref = v
			s.mem.Write(p, st)
			span.To(s.sink, obs.PhasePrefer, i, p.Now(), p.Steps())
			continue
		}

		// Conflict: withdraw first (the paper's ⊥ pause — see ExpLocal for
		// why it is load-bearing), then one atomic oracle flip resolves the
		// round's coin.
		if st.Pref != Bottom {
			st.Pref = Bottom // value field: no clone needed
			s.mem.Write(p, st)
			continue
		}
		span.To(s.sink, obs.PhaseCoin, i, p.Now(), p.Steps())
		bit := s.oracle.Flip(p, st.Round)
		s.flips[i].Add(1)
		s.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreFlip, Round: st.Round, Detail: "oracle=" + prefString(bit)})
		span.To(s.sink, obs.PhaseStrip, i, p.Now(), p.Steps())
		st = s.inc(p, st)
		st.Pref = bit
		s.mem.Write(p, st)
		span.To(s.sink, obs.PhasePrefer, i, p.Now(), p.Steps())
	}
}
