package core

import (
	"fmt"
	"sync/atomic"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/pad"
	"github.com/dsrepro/consensus/internal/register"
	"github.com/dsrepro/consensus/internal/scan"
	"github.com/dsrepro/consensus/internal/sched"
	"github.com/dsrepro/consensus/internal/strip"
	"github.com/dsrepro/consensus/internal/walk"
)

// Config parameterizes a protocol instance.
type Config struct {
	// N is the number of processes.
	N int
	// K is the rounds-strip constant; the paper fixes K = 2 (the default
	// when zero).
	K int
	// B is the shared-coin barrier multiplier (paper's b; default 4).
	B int
	// M bounds each coin counter of the bounded shared coin to
	// {-(M+1)..M+1}; 0 picks the Lemma 3.3 default (comfortably above the
	// barrier). The other coins ignore it: AH's walk counters are always
	// unbounded.
	M int
	// MemKind selects the scannable-memory implementation (default Arrow).
	MemKind scan.Kind
	// UseBloomArrows builds the Arrow memory's 2W2R registers from Bloom's
	// SWMR construction instead of the direct atomic model.
	UseBloomArrows bool
	// FastDecide enables the footnote-5 style speedup in the bounded
	// protocol: deciders publish a decided marker, and any process seeing
	// one immediately decides the same value (safe because a decision is
	// final — Lemma 6.6 makes every future decision equal to it).
	FastDecide bool
}

// withDefaults fills in zero fields.
func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 2
	}
	if c.B == 0 {
		c.B = 4
	}
	if c.MemKind == 0 {
		c.MemKind = scan.KindArrow
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("core: N must be >= 1, got %d", c.N)
	}
	if c.K < 0 || c.B < 0 || c.M < 0 {
		return fmt.Errorf("core: negative parameter in %+v", c)
	}
	return nil
}

// newMemory defaults and validates cfg and builds its scannable memory of
// entries E.
func newMemory[E any](cfg Config) (Config, scan.Memory[E], error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return cfg, nil, err
	}
	factory := register.DirectFactory
	if cfg.UseBloomArrows {
		factory = register.BloomFactory
	}
	mem, err := scan.New[E](cfg.MemKind, cfg.N, factory)
	return cfg, mem, err
}

// resetMemory resets a scannable memory between runs, reporting whether
// every layer of it supported the operation.
func resetMemory(mem any) bool {
	r, ok := mem.(interface{ Reset() bool })
	return ok && r.Reset()
}

// Metrics aggregates per-run accounting common to all protocols.
type Metrics struct {
	// Rounds[i] is the number of inc operations (local round advances)
	// process i performed.
	Rounds []int64
	// CoinFlips[i] is the number of coin flips (walk steps or local/oracle
	// flips) process i performed.
	CoinFlips []int64
	// MaxAbsCoin is the largest |coin counter| ever written.
	MaxAbsCoin int64
	// MaxRound is the largest explicit round number ever written (explicit
	// round protocols only; 0 on the bounded strip, which has none).
	MaxRound int64
	// StripLen is the largest per-process coin-strip length ever written
	// (the unbounded walk coin only).
	StripLen int64
}

// counters are a protocol's per-process round and coin-flip counts.
type counters struct {
	rounds []pad.Int64
	flips  []pad.Int64
}

func newCounters(n int) counters {
	return counters{rounds: make([]pad.Int64, n), flips: make([]pad.Int64, n)}
}

// metrics returns the counts as a Metrics with the maxima left zero.
func (c counters) metrics() Metrics {
	m := Metrics{Rounds: make([]int64, len(c.rounds)), CoinFlips: make([]int64, len(c.flips))}
	for i := range c.rounds {
		m.Rounds[i] = c.rounds[i].Load()
		m.CoinFlips[i] = c.flips[i].Load()
	}
	return m
}

func (c counters) reset() {
	for i := range c.rounds {
		c.rounds[i].Store(0)
		c.flips[i].Store(0)
	}
}

// Bounded is the paper's §5 loop over the bounded rounds strip (§4): decide
// when leading with every disagreer K rounds behind (line 2), adopt the
// leaders' common value (lines 3-4), withdraw on a leader conflict (lines
// 5-6), and hand the conflict itself (lines 7-8) to a coin. NewBounded builds
// the paper's protocol, whose coin is the bounded weak shared coin (§3), and
// NewExpLocal the exponential baseline, whose coin is an independent local
// flip per process.
type Bounded struct {
	name string
	cfg  Config
	mem  scan.Memory[Entry]
	coin stripCoin

	counters
	maxAbsCoin atomic.Int64

	// scratch[i] is pid i's decode working storage, touched only by the
	// goroutine running pid i. Views and entries published to scannable memory
	// are never built from it.
	scratch []bscratch
	// spans[i] is pid i's phase span, owned by its Run. It lives here rather
	// than on Run's stack because the coin's conflict step takes a pointer
	// to it, which would move a stack span to the heap on every run.
	spans []obs.PhaseSpan

	instruments

	// OnScan, if non-nil, is invoked after every scan with the scanning
	// process and its (normalized) view, in scan-serialization order. It is
	// an analysis hook (e.g. the §6.1 virtual-round tracker in
	// internal/vround); invocations are serialized under the step scheduler.
	// Do not set in free-running mode.
	OnScan func(pid int, view []Entry)
}

// stripCoin resolves the bounded loop's leader conflicts.
type stripCoin interface {
	// conflict is lines 7-8 for process p, which holds ⊥ in st and whose
	// view, decoded as g, shows the leaders disagreeing. It writes and
	// returns the process's next entry.
	conflict(b *Bounded, p *sched.Proc, span *obs.PhaseSpan, st Entry, view []Entry, g *strip.Graph) Entry
	// declare declares the value domain of the entries' coin slots on the
	// walk layer (m may be nil).
	declare(m *space.Meter)
	// reset restores the coin's between-run state.
	reset()
}

// NewBounded builds the paper's protocol: bounded memory and polynomial
// expected time.
func NewBounded(cfg Config) (*Bounded, error) {
	return newBounded("bounded", cfg, func(cfg Config) stripCoin {
		params := walk.Params{N: cfg.N, B: cfg.B, M: cfg.M}
		if params.M == 0 {
			params.M = params.DefaultM()
		}
		return &sharedCoin{params: params, coins: perProcInts(cfg.N)}
	})
}

// NewExpLocal builds the exponential-time, bounded-space baseline
// (Abrahamson-style, reconstructed over the paper's bounded rounds strip):
// the same loop, but each conflicted process adopts an independent local
// flip instead of driving the shared coin. Agreement then requires the flips
// to coincide, which happens with exponentially small probability as n grows
// — the behaviour the shared coin exists to fix. It is an exact ablation:
// same substrate, same decide rule, only the randomness source differs. B, M
// and FastDecide are ignored.
func NewExpLocal(cfg Config) (*Bounded, error) {
	cfg.FastDecide = false
	return newBounded("exp-local", cfg, func(Config) stripCoin { return stripFlip(fairFlip) })
}

func newBounded(name string, cfg Config, coin func(Config) stripCoin) (*Bounded, error) {
	cfg, mem, err := newMemory[Entry](cfg)
	if err != nil {
		return nil, err
	}
	return &Bounded{
		name:     name,
		cfg:      cfg,
		mem:      mem,
		coin:     coin(cfg),
		counters: newCounters(cfg.N),
		scratch:  newScratch(cfg.N, cfg.K),
		spans:    make([]obs.PhaseSpan, cfg.N),
	}, nil
}

// bscratch is one process's reusable decode storage: separate graphs for the
// view decode and the inc-graph decode (both alive within one loop
// iteration) and the edge-matrix header slice.
type bscratch struct {
	gView, gInc *strip.Graph
	mat         [][]int
}

func newScratch(n, k int) []bscratch {
	sc := make([]bscratch, n)
	for i := range sc {
		sc[i].gView = strip.NewGraph(n, k)
		sc[i].gInc = strip.NewGraph(n, k)
		sc[i].mat = make([][]int, n)
	}
	return sc
}

// perProcInts returns n reusable n-int scratch arrays, one per process.
func perProcInts(n int) [][]int {
	s := make([][]int, n)
	for i := range s {
		s[i] = make([]int, n)
	}
	return s
}

// fillEdgeMatrix assembles the §4.3 counter matrix from a scanned view into
// a reused header slice.
func fillEdgeMatrix(mat [][]int, view []Entry) {
	for i, ent := range view {
		mat[i] = ent.Edge
	}
}

// fail stops process i on a strip that no longer decodes, a state only a
// protocol bug can reach.
func (b *Bounded) fail(i int, err error) {
	panic(fmt.Sprintf("core: %s proc %d: %v", b.name, i, err))
}

// Reset restores the instance to its initial state for pooling (core.Arena),
// reporting whether the memory stack supported it. The OnScan hook is
// cleared; instruments are not, because every run installs its own. Call
// only between runs.
func (b *Bounded) Reset() bool {
	if !resetMemory(b.mem) {
		return false
	}
	b.counters.reset()
	b.maxAbsCoin.Store(0)
	b.coin.reset()
	b.OnScan = nil
	return true
}

// Name implements Protocol.
func (b *Bounded) Name() string { return b.name }

// Config returns the effective configuration.
func (b *Bounded) Config() Config { return b.cfg }

// install implements Protocol: the run's instruments go on the protocol and
// the whole memory stack beneath it, the monitor gets the flight-recorder
// state snapshot, and a meter gets the protocol's static layout: per process
// the entry carries pref + current_coin pointer + decided flag (core), K+1
// cyclic coin slots (walk; their domain is the coin's), and n mod-3K edge
// counters (strip). All bounded — this is the round structure whose meters
// must never move past their declared domains.
func (b *Bounded) install(in instruments) {
	b.instruments = in
	installMemory(b.mem, in)
	in.mon.SetStateFn(b.captureState)
	m := in.spc
	n, k := int64(b.cfg.N), int64(b.cfg.K)
	m.AddWords(space.LayerCore, n*3)
	m.AddWords(space.LayerWalk, n*(k+1))
	m.AddWords(space.LayerStrip, n*n)
	m.DeclareDomain(space.LayerCore, 3)   // pref {⊥,0,1}
	m.DeclareDomain(space.LayerCore, k+1) // current_coin pointer
	b.coin.declare(m)
	m.DeclareDomain(space.LayerStrip, 3*k)
}

// captureState snapshots the published protocol state for flight dumps:
// preferences, round counts, the current coin counter and edge row of every
// process, via the memory's no-step Peek path.
func (b *Bounded) captureState() audit.State {
	pk, ok := b.mem.(interface{ PeekSlot(j int) Entry })
	if !ok {
		return audit.State{}
	}
	n, k := b.cfg.N, b.cfg.K
	st := audit.State{
		Prefs:  make([]int, n),
		Rounds: make([]int64, n),
		Coins:  make([]int, n),
		Edges:  make([][]int, n),
	}
	for i := 0; i < n; i++ {
		e := pk.PeekSlot(i)
		if e.Coin == nil {
			e = NewEntry(n, k)
		}
		st.Prefs[i] = int(e.Pref)
		st.Rounds[i] = b.rounds[i].Load()
		st.Coins[i] = e.Coin[coinSlot(e.CurrentCoin, 0, k)]
		st.Edges[i] = append([]int(nil), e.Edge...)
	}
	return st
}

// Metrics implements Protocol. Call only after the run completes.
func (b *Bounded) Metrics() Metrics {
	m := b.counters.metrics()
	m.MaxAbsCoin = b.maxAbsCoin.Load()
	return m
}

// inc is the paper's inc(round): advance the cyclic coin pointer, zero the
// slot that will serve the next round's coin, and recompute the edge-counter
// row from the scanned view via inc_graph.
func (b *Bounded) inc(p *sched.Proc, st Entry, view []Entry) Entry {
	k := b.cfg.K
	st = st.CloneCoin() // Edge is replaced wholesale by the fresh row below
	st.CurrentCoin = next(st.CurrentCoin, k)
	st.Coin[next(st.CurrentCoin, k)] = 0
	sc := &b.scratch[p.ID()]
	fillEdgeMatrix(sc.mat, view)
	sc.mat[p.ID()] = st.Edge
	row, err := strip.IncRowAudited(p.ID(), sc.mat, k, sc.gInc, p, b.sink, b.mon)
	if err != nil {
		b.fail(p.ID(), err)
	}
	st.Edge = row
	if b.spc.Enabled() {
		for _, v := range row {
			b.spc.NoteValue(space.LayerStrip, int64(v))
		}
		b.spc.NoteValue(space.LayerCore, int64(st.CurrentCoin))
		b.spc.NoteValue(space.LayerCore, int64(st.Pref))
	}
	b.rounds[p.ID()].Add(1)
	b.sink.Emit(obs.Event{Step: p.Now(), Pid: p.ID(), Kind: obs.CoreRound, Round: b.rounds[p.ID()].Load()})
	return st
}

// adopt advances a round and prefers v (lines 3-4, and a decided coin's
// outcome).
func (b *Bounded) adopt(p *sched.Proc, span *obs.PhaseSpan, st Entry, view []Entry, v int8) Entry {
	i := p.ID()
	span.To(b.sink, obs.PhaseStrip, i, p.Now(), p.Steps())
	st = b.inc(p, st, view)
	old := st.Pref
	st.Pref = v
	b.mem.Write(p, st)
	if old != v {
		emitDetail(b.sink, obs.Event{Step: p.Now(), Pid: i, Kind: obs.CorePref, Round: b.rounds[i].Load()},
			prefString(old), "->", prefString(v))
	}
	span.To(b.sink, obs.PhasePrefer, i, p.Now(), p.Steps())
	return st
}

// atomicMax raises *a to v if v is larger (CAS loop; safe under free-running
// concurrency).
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Run implements Protocol: the §5 main loop for one process. It returns the
// decided value (0 or 1).
func (b *Bounded) Run(p *sched.Proc, input int) int {
	i := p.ID()
	st := NewEntry(b.cfg.N, b.cfg.K)
	span := &b.spans[i]
	*span = obs.StartPhaseSpan(p.Steps())
	if b.prof.Enabled() {
		span.Observe(b.prof)
	}

	// Initial write: prefer the input and enter round 1. The first inc sees
	// the scanned (possibly already-moving) edge counters.
	view := b.mem.Scan(p)
	normalizeView(view, b.cfg.N, b.cfg.K)
	if b.OnScan != nil {
		b.OnScan(i, view)
	}
	span.To(b.sink, obs.PhaseStrip, i, p.Now(), p.Steps())
	st = b.inc(p, st, view)
	st.Pref = int8(input)
	b.mem.Write(p, st)
	emitDetail(b.sink, obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreStart, Round: b.rounds[i].Load()}, "pref=", prefString(st.Pref))
	span.To(b.sink, obs.PhasePrefer, i, p.Now(), p.Steps())

	for {
		view := b.mem.Scan(p)
		normalizeView(view, b.cfg.N, b.cfg.K)
		view[i] = st // own slot: exactly what we last wrote
		if b.OnScan != nil {
			b.OnScan(i, view)
		}
		sc := &b.scratch[i]
		fillEdgeMatrix(sc.mat, view)
		g, err := strip.DecodeInto(sc.gView, sc.mat, b.cfg.K)
		if err != nil {
			b.fail(i, fmt.Errorf("core: scanned view undecodable: %w", err))
		}
		sc.gView = g
		if b.mon.AuditGraphs() {
			b.mon.GraphResult(p.Now(), i, g.Validate())
		}

		// FastDecide short-circuit: a published decision is final, so adopt
		// and decide it immediately (footnote 5 speedup; off by default).
		if b.cfg.FastDecide {
			for j := range view {
				if j != i && view[j].Decided {
					v := view[j].Pref
					span.To(b.sink, obs.PhaseDecide, i, p.Now(), p.Steps())
					b.sink.Observe(obs.HistStepsToDecide, p.Steps())
					emitDetail(b.sink, obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreDecide, Round: b.rounds[i].Load()}, prefString(v), " (fast)")
					span.Finish(b.sink, i, p.Now(), p.Steps())
					return int(v)
				}
			}
		}

		// Line 2: decide when leading and every disagreer trails by K.
		if st.Pref != Bottom && g.Leader(i) && disagreersTrailByK(view, g, i, st.Pref) {
			span.To(b.sink, obs.PhaseDecide, i, p.Now(), p.Steps())
			if b.cfg.FastDecide {
				// Decided is a value field: flipping it on the local copy
				// cannot affect already-published entries, so no clone.
				st.Decided = true
				b.mem.Write(p, st)
			}
			b.sink.Observe(obs.HistStepsToDecide, p.Steps())
			emitDetail(b.sink, obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreDecide, Round: b.rounds[i].Load()}, prefString(st.Pref))
			span.Finish(b.sink, i, p.Now(), p.Steps())
			return int(st.Pref)
		}

		// Lines 3-4: adopt the leaders' common value and advance a round.
		if v, ok := leadersAgree(view, g); ok {
			st = b.adopt(p, span, st, view, v)
			continue
		}

		// Lines 5-6: leaders disagree — withdraw the preference at the same
		// round, before any coin runs. The pause is load-bearing: without it
		// a climbing process can pass a decided leader without ever seeing
		// it, breaking consistency at ~1/2000 schedules of the local-flip
		// coin.
		if st.Pref != Bottom {
			old := st.Pref
			st.Pref = Bottom // value field: no clone needed
			b.mem.Write(p, st)
			emitDetail(b.sink, obs.Event{Step: p.Now(), Pid: i, Kind: obs.CorePref, Round: b.rounds[i].Load()},
				prefString(old), "->⊥")
			continue
		}

		// Lines 7-8: the coin resolves the conflict.
		st = b.coin.conflict(b, p, span, st, view, g)
	}
}

// sharedCoin is the paper's bounded weak shared coin (§3) kept in the
// entries' K+1 cyclic coin slots: a process at the conflict evaluates the
// coin of its current round and, while it is undecided, takes one bounded
// walk step on its own counter.
type sharedCoin struct {
	params walk.Params
	// coins[i] is pid i's reused counter-assembly array (owner-only access).
	coins [][]int
}

func (c *sharedCoin) declare(m *space.Meter) {
	m.DeclareDomain(space.LayerWalk, 2*int64(c.params.M)+3)
}

func (c *sharedCoin) reset() {}

func (c *sharedCoin) conflict(b *Bounded, p *sched.Proc, span *obs.PhaseSpan, st Entry, view []Entry, g *strip.Graph) Entry {
	i := p.ID()
	cv := c.nextCoinValue(i, b.cfg.K, st, view, g)
	if cv != walk.Undecided {
		b.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreCoin, Round: b.rounds[i].Load(), Detail: cv.String()})
		return b.adopt(p, span, st, view, outcomeBit(cv))
	}
	span.To(b.sink, obs.PhaseCoin, i, p.Now(), p.Steps())
	st = c.flipNextCoin(b, p, st)
	b.mem.Write(p, st)
	span.To(b.sink, obs.PhasePrefer, i, p.Now(), p.Steps())
	return st
}

// nextCoinValue is the paper's next_coin_value(round): assemble the counter
// array for the caller's current round from the scanned view — own current
// slot, plus the matching slot of every process at most K-1 rounds ahead —
// and evaluate the walk.
func (c *sharedCoin) nextCoinValue(i, k int, st Entry, view []Entry, g *strip.Graph) walk.Outcome {
	a := c.coins[i]
	for j := range view {
		switch {
		case j == i:
			a[j] = st.Coin[coinSlot(st.CurrentCoin, 0, k)]
		case g.Has[j][i] && g.W[j][i] < k:
			a[j] = view[j].Coin[coinSlot(view[j].CurrentCoin, g.W[j][i], k)]
		default:
			a[j] = 0 // more than K-1 ahead (contribution withdrawn) or behind
		}
	}
	return c.params.Value(a)
}

// flipNextCoin is the paper's flip_next_coin: one bounded walk step on the
// caller's coin counter for its current round.
func (c *sharedCoin) flipNextCoin(b *Bounded, p *sched.Proc, st Entry) Entry {
	st = st.CloneCoin() // only a coin slot is mutated; Edge stays shared
	slot := coinSlot(st.CurrentCoin, 0, b.cfg.K)
	st.Coin[slot] = c.params.StepCounterAudited(st.Coin[slot], p, b.sink, b.mon)
	b.spc.NoteValue(space.LayerWalk, int64(st.Coin[slot]))
	b.flips[p.ID()].Add(1)
	atomicMax(&b.maxAbsCoin, int64(abs(st.Coin[slot])))
	b.sink.GaugeMax(obs.GaugeMaxAbsCoin, int64(abs(st.Coin[slot])))
	ev := obs.Event{Step: p.Now(), Pid: p.ID(), Kind: obs.CoreFlip, Round: b.rounds[p.ID()].Load()}
	if b.sink.Tracing() {
		ev.Detail = fmt.Sprintf("c=%d", st.Coin[slot])
	}
	b.sink.Emit(ev)
	return st
}

// stripFlip is NewExpLocal's coin: a conflicted process advances a round and
// adopts the preference the function picks — by default an independent fair
// local flip. The coin slots exist but stay zero. Tests substitute
// deterministic rules to demonstrate the impossibility the paper's
// introduction cites: with only atomic reads and writes, deterministic
// protocols can be scheduled so that they never decide.
type stripFlip func(p *sched.Proc, cur int8) int8

// fairFlip is a fair local coin.
func fairFlip(p *sched.Proc, _ int8) int8 { return int8(p.Rand().Intn(2)) }

func (f stripFlip) declare(m *space.Meter) { m.DeclareDomain(space.LayerWalk, 1) } // slots never leave zero

func (f stripFlip) reset() {}

func (f stripFlip) conflict(b *Bounded, p *sched.Proc, span *obs.PhaseSpan, st Entry, view []Entry, _ *strip.Graph) Entry {
	i := p.ID()
	span.To(b.sink, obs.PhaseStrip, i, p.Now(), p.Steps())
	st = b.inc(p, st, view)
	span.To(b.sink, obs.PhaseCoin, i, p.Now(), p.Steps())
	st.Pref = f(p, st.Pref)
	b.flips[i].Add(1)
	b.mem.Write(p, st)
	emitDetail(b.sink, obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreFlip, Round: b.rounds[i].Load()},
		"local=", prefString(st.Pref))
	span.To(b.sink, obs.PhasePrefer, i, p.Now(), p.Steps())
	return st
}

// outcomeBit maps a decided coin outcome to a consensus value.
func outcomeBit(o walk.Outcome) int8 {
	if o == walk.Heads {
		return 1
	}
	return 0
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
