package core

import (
	"sync"
	"sync/atomic"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/scan"
	"github.com/dsrepro/consensus/internal/sched"
	"github.com/dsrepro/consensus/internal/walk"
)

// UEntry is the register value of the explicit-round protocols: an explicit
// (unbounded) round number and, for AH's walk coin, an unbounded strip of
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

// Unbounded is the same decide/adopt/withdraw loop as Bounded over plain
// integer rounds: a process decides when it leads and every disagreer is at
// least K rounds behind, adopts the common preference of the processes at
// the maximal round, withdraws when they conflict, and hands the conflict to
// a coin. NewAHUnbounded builds the Aspnes–Herlihy baseline (a fresh
// unbounded random walk per round), NewAbrahamson the [A88]-style baseline
// (independent local flips) and NewStrongCoin the Chor–Israeli–Li baseline
// (the Oracle's atomic coin).
type Unbounded struct {
	name string
	cfg  Config
	mem  scan.Memory[UEntry]
	coin roundCoin

	counters
	maxAbs   atomic.Int64
	maxRound atomic.Int64
	stripLen atomic.Int64

	// spans[i] is pid i's phase span (see Bounded.spans).
	spans []obs.PhaseSpan

	instruments
}

// roundCoin resolves the explicit-round loop's leader conflicts.
type roundCoin interface {
	// conflict is lines 7-8 for process p, which holds ⊥ in st and whose
	// view shows the processes at the maximal round disagreeing. It writes
	// and returns the process's next entry.
	conflict(u *Unbounded, p *sched.Proc, span *obs.PhaseSpan, st UEntry, view []UEntry) UEntry
	// prepare readies an entry that has just entered round st.Round.
	prepare(u *Unbounded, st UEntry) UEntry
	// declare declares the coin's walk-layer space on m (nil when the run
	// meters no space); a coin whose space grows online keeps m.
	declare(m *space.Meter)
	// reset restores the coin's between-run state.
	reset()
}

// NewAHUnbounded builds the unbounded polynomial-time baseline ([AH88]-style):
// every round has its own fresh unbounded coin counter. Config.M is ignored:
// counters are always unbounded.
func NewAHUnbounded(cfg Config) (*Unbounded, error) {
	return newUnbounded("ah-unbounded", cfg, func(cfg Config) roundCoin {
		return &walkCoin{params: walk.Params{N: cfg.N, B: cfg.B}, coins: perProcInts(cfg.N)} // M=0: unbounded
	})
}

// NewAbrahamson builds the unbounded-memory, exponential-time baseline
// ([A88]-style): explicit round numbers and an independent local flip on
// every conflict. B and M are ignored (no shared coin).
func NewAbrahamson(cfg Config) (*Unbounded, error) {
	return newUnbounded("abrahamson", cfg, func(Config) roundCoin { return roundFlip{} })
}

// NewStrongCoin builds the CIL-style baseline: explicit rounds with the
// Oracle primitive as the coin. Because flippers of one round always agree,
// conflicts die in O(1) expected rounds regardless of the adversary. B and
// M are ignored.
func NewStrongCoin(cfg Config) (*Unbounded, error) {
	return newUnbounded("strong-coin", cfg, func(Config) roundCoin { return NewOracle() })
}

func newUnbounded(name string, cfg Config, coin func(Config) roundCoin) (*Unbounded, error) {
	cfg, mem, err := newMemory[UEntry](cfg)
	if err != nil {
		return nil, err
	}
	return &Unbounded{name: name, cfg: cfg, mem: mem, coin: coin(cfg), counters: newCounters(cfg.N),
		spans: make([]obs.PhaseSpan, cfg.N)}, nil
}

// Name implements Protocol.
func (u *Unbounded) Name() string { return u.name }

// install implements Protocol (see Bounded.install). The monitor's
// coin-range probe stays dormant here (no coin is range-bounded) but the
// scan, register and end-of-instance probes all apply. The static space
// layout is pref + round per process (core); the explicit round number is
// unbounded, measured where inc writes it, and the coin declares the rest.
func (u *Unbounded) install(in instruments) {
	u.instruments = in
	installMemory(u.mem, in)
	in.mon.SetStateFn(u.captureState)
	m := in.spc
	m.AddWords(space.LayerCore, int64(u.cfg.N)*2) // pref + round
	m.DeclareDomain(space.LayerCore, 3)
	m.DeclareUnbounded(space.LayerCore) // explicit round numbers
	u.coin.declare(m)
}

// captureState snapshots the published state for flight dumps: preferences
// and rounds, plus the current coin cell and the strip of every process once
// any entry carries a strip (only the walk coin keeps strips).
func (u *Unbounded) captureState() audit.State {
	pk, ok := u.mem.(interface{ PeekSlot(int) UEntry })
	if !ok {
		return audit.State{}
	}
	n := u.cfg.N
	st := audit.State{Prefs: make([]int, n), Rounds: make([]int64, n)}
	for i := 0; i < n; i++ {
		e := pk.PeekSlot(i)
		st.Prefs[i] = int(e.Pref)
		st.Rounds[i] = e.Round
		if e.Strip == nil {
			continue
		}
		if st.Strips == nil {
			st.Coins, st.Strips = make([]int, n), make([][]int, n)
		}
		if e.Round >= 1 && int(e.Round) <= len(e.Strip) {
			st.Coins[i] = e.Strip[e.Round-1]
		}
		st.Strips[i] = append([]int(nil), e.Strip...)
	}
	return st
}

// Reset restores the instance to its initial state for pooling (core.Arena),
// reporting whether the memory stack supported it. Call only between runs.
func (u *Unbounded) Reset() bool {
	if !resetMemory(u.mem) {
		return false
	}
	u.counters.reset()
	u.maxAbs.Store(0)
	u.maxRound.Store(0)
	u.stripLen.Store(0)
	u.coin.reset()
	return true
}

// Metrics implements Protocol.
func (u *Unbounded) Metrics() Metrics {
	m := u.counters.metrics()
	m.MaxAbsCoin = u.maxAbs.Load()
	m.MaxRound = u.maxRound.Load()
	m.StripLen = u.stripLen.Load()
	return m
}

// uLeaders returns the maximal round and whether all processes at it share
// one non-Bottom preference (and that preference).
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

// inc advances the process's round.
func (u *Unbounded) inc(p *sched.Proc, st UEntry) UEntry {
	st.Round++
	st = u.coin.prepare(u, st)
	u.spc.NoteValue(space.LayerCore, st.Round)
	u.rounds[p.ID()].Add(1)
	atomicMax(&u.maxRound, st.Round)
	atomicMax(&u.stripLen, int64(len(st.Strip)))
	u.sink.GaugeMax(obs.GaugeMaxRound, st.Round)
	u.sink.GaugeMax(obs.GaugeMaxStripLen, int64(len(st.Strip)))
	u.sink.Emit(obs.Event{Step: p.Now(), Pid: p.ID(), Kind: obs.CoreRound, Round: st.Round})
	return st
}

// adopt advances a round and prefers v (the adopt step, and a coin's
// outcome).
func (u *Unbounded) adopt(p *sched.Proc, span *obs.PhaseSpan, st UEntry, v int8) UEntry {
	i := p.ID()
	span.To(u.sink, obs.PhaseStrip, i, p.Now(), p.Steps())
	st = u.inc(p, st)
	st.Pref = v
	u.mem.Write(p, st)
	span.To(u.sink, obs.PhasePrefer, i, p.Now(), p.Steps())
	return st
}

// Run implements Protocol for one process.
func (u *Unbounded) Run(p *sched.Proc, input int) int {
	i := p.ID()
	st := UEntry{Pref: int8(input)}
	span := &u.spans[i]
	*span = obs.StartPhaseSpan(p.Steps())
	if u.prof.Enabled() {
		span.Observe(u.prof)
	}
	span.To(u.sink, obs.PhaseStrip, i, p.Now(), p.Steps())
	st = u.inc(p, st)
	u.mem.Write(p, st)
	emitDetail(u.sink, obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreStart, Round: st.Round}, "pref=", prefString(st.Pref))
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
				emitDetail(u.sink, obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreDecide, Round: st.Round}, prefString(st.Pref))
				span.Finish(u.sink, i, p.Now(), p.Steps())
				return int(st.Pref)
			}
		}

		// Adopt the leaders' common value.
		if agree {
			st = u.adopt(p, span, st, v)
			continue
		}

		// Withdraw a conflicting preference (the ⊥ pause; see Bounded.Run).
		if st.Pref != Bottom {
			st.Pref = Bottom // value field: no clone needed
			u.mem.Write(p, st)
			continue
		}

		// The coin resolves the conflict.
		st = u.coin.conflict(u, p, span, st, view)
	}
}

// walkCoin is AH's coin: every round has its own unbounded random-walk
// counter per process, kept in the entries' strips.
type walkCoin struct {
	params walk.Params
	// coins[i] is pid i's reused counter-assembly array (owner-only access).
	coins [][]int
}

// prepare grows the strip by the new round's counter.
func (c *walkCoin) prepare(u *Unbounded, st UEntry) UEntry {
	st = st.Clone()
	for int64(len(st.Strip)) < st.Round {
		st.Strip = append(st.Strip, 0)
		u.spc.AddWords(space.LayerStrip, 1) // online growth: the unbounded strip
	}
	return st
}

func (c *walkCoin) declare(m *space.Meter) {
	m.DeclareUnbounded(space.LayerWalk)  // no ±(M+1) clamp
	m.DeclareUnbounded(space.LayerStrip) // one slot per round, forever
}

func (c *walkCoin) reset() {}

func (c *walkCoin) conflict(u *Unbounded, p *sched.Proc, span *obs.PhaseSpan, st UEntry, view []UEntry) UEntry {
	i := p.ID()
	if cv := c.value(i, view, st.Round); cv != walk.Undecided {
		return u.adopt(p, span, st, outcomeBit(cv))
	}
	span.To(u.sink, obs.PhaseCoin, i, p.Now(), p.Steps())
	st = st.Clone()
	r := st.Round - 1
	st.Strip[r] = c.params.StepCounterAudited(st.Strip[r], p, u.sink, u.mon)
	u.spc.NoteValue(space.LayerWalk, int64(st.Strip[r]))
	u.flips[i].Add(1)
	atomicMax(&u.maxAbs, int64(abs(st.Strip[r])))
	u.sink.GaugeMax(obs.GaugeMaxAbsCoin, int64(abs(st.Strip[r])))
	u.mem.Write(p, st)
	span.To(u.sink, obs.PhasePrefer, i, p.Now(), p.Steps())
	return st
}

// value sums every process's contribution to round r's coin, assembling the
// counter array into pid i's reused scratch.
func (c *walkCoin) value(i int, view []UEntry, r int64) walk.Outcome {
	a := c.coins[i]
	for j, ent := range view {
		if int(r) <= len(ent.Strip) {
			a[j] = ent.Strip[r-1]
		} else {
			a[j] = 0
		}
	}
	return c.params.Value(a)
}

// roundFlip is NewAbrahamson's coin: a conflicted process advances a round and
// adopts an independent fair local flip.
type roundFlip struct{}

func (roundFlip) prepare(_ *Unbounded, st UEntry) UEntry { return st }

func (roundFlip) declare(*space.Meter) {}

func (roundFlip) reset() {}

func (roundFlip) conflict(u *Unbounded, p *sched.Proc, span *obs.PhaseSpan, st UEntry, _ []UEntry) UEntry {
	i := p.ID()
	span.To(u.sink, obs.PhaseStrip, i, p.Now(), p.Steps())
	st = u.inc(p, st)
	span.To(u.sink, obs.PhaseCoin, i, p.Now(), p.Steps())
	st.Pref = fairFlip(p, st.Pref)
	u.flips[i].Add(1)
	u.mem.Write(p, st)
	emitDetail(u.sink, obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreFlip, Round: st.Round}, "local=", prefString(st.Pref))
	span.To(u.sink, obs.PhasePrefer, i, p.Now(), p.Steps())
	return st
}

// Oracle models the Chor–Israeli–Li atomic coin-flip primitive: for each
// round there is one globally shared random bit; the first process to flip
// for a round draws it, and every later flipper for the same round observes
// the same bit. One flip is one atomic step. (This is exactly the "powerful
// atomic coin flip operation" whose availability [CIL87] assumes and whose
// absence motivates the rest of the literature.) It is NewStrongCoin's coin.
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

// conflict flips the round's bit in one atomic step and adopts it.
func (o *Oracle) conflict(u *Unbounded, p *sched.Proc, span *obs.PhaseSpan, st UEntry, _ []UEntry) UEntry {
	i := p.ID()
	span.To(u.sink, obs.PhaseCoin, i, p.Now(), p.Steps())
	bit := o.Flip(p, st.Round)
	u.flips[i].Add(1)
	emitDetail(u.sink, obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreFlip, Round: st.Round}, "oracle=", prefString(bit))
	return u.adopt(p, span, st, bit)
}

func (o *Oracle) prepare(_ *Unbounded, st UEntry) UEntry { return st }

// declare keeps the meter for Flip: the bits are 1 bit wide, but their count
// is unbounded, so Flip records the store's growth online. The oracle needs
// no storage mode: it is mutex-guarded and correct under real concurrency.
func (o *Oracle) declare(m *space.Meter) {
	o.spc = m
	m.DeclareDomain(space.LayerWalk, 2)
}

// reset forgets all drawn bits (between runs only; the map is kept to reuse
// its buckets).
func (o *Oracle) reset() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for r := range o.bits {
		delete(o.bits, r)
	}
}
