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
	// M bounds each coin counter to {-(M+1)..M+1}; 0 picks the Lemma 3.3
	// default (comfortably above the barrier); negative means unbounded
	// counters (only meaningful for the unbounded baseline).
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

// Metrics aggregates per-run accounting common to all protocols.
type Metrics struct {
	// Rounds[i] is the number of inc operations (local round advances)
	// process i performed.
	Rounds []int64
	// CoinFlips[i] is the number of walk steps process i performed.
	CoinFlips []int64
	// MaxAbsCoin is the largest |coin counter| ever written.
	MaxAbsCoin int64
	// MaxRound is the largest explicit round number ever written (unbounded
	// protocols only; 0 for the bounded protocol, which has none).
	MaxRound int64
	// StripLen is the largest per-process coin-strip length ever written
	// (unbounded protocols only).
	StripLen int64
}

// Bounded is the paper's §5 consensus protocol with bounded memory and
// polynomial expected time.
type Bounded struct {
	cfg    Config
	params walk.Params
	mem    scan.Memory[Entry]

	rounds     []pad.Int64
	flips      []pad.Int64
	maxAbsCoin atomic.Int64

	// scratch[i] is pid i's decode/coin working storage, touched only by the
	// goroutine running pid i. Views and entries published to scannable memory
	// are never built from it.
	scratch []bscratch

	instruments

	// OnScan, if non-nil, is invoked after every scan with the scanning
	// process and its (normalized) view, in scan-serialization order. It is
	// an analysis hook (e.g. the §6.1 virtual-round tracker in
	// internal/vround); invocations are serialized under the step scheduler.
	// Do not set in free-running mode.
	OnScan func(pid int, view []Entry)
}

// NewBounded builds a bounded-protocol instance.
func NewBounded(cfg Config) (*Bounded, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	params := walk.Params{N: cfg.N, B: cfg.B, M: cfg.M}
	if params.M == 0 {
		params.M = params.DefaultM()
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	factory := register.DirectFactory
	if cfg.UseBloomArrows {
		factory = register.BloomFactory
	}
	mem, err := scan.New[Entry](cfg.MemKind, cfg.N, factory)
	if err != nil {
		return nil, err
	}
	return &Bounded{
		cfg:     cfg,
		params:  params,
		mem:     mem,
		rounds:  make([]pad.Int64, cfg.N),
		flips:   make([]pad.Int64, cfg.N),
		scratch: newScratch(cfg.N, cfg.K, true),
	}, nil
}

// bscratch is one process's reusable decode/coin storage: separate graphs for
// the view decode and the inc-graph decode (both alive within one loop
// iteration), the edge-matrix header slice, and the coin-assembly array.
type bscratch struct {
	gView, gInc *strip.Graph
	mat         [][]int
	coins       []int
}

func newScratch(n, k int, coins bool) []bscratch {
	sc := make([]bscratch, n)
	for i := range sc {
		sc[i].gView = strip.NewGraph(n, k)
		sc[i].gInc = strip.NewGraph(n, k)
		sc[i].mat = make([][]int, n)
		if coins {
			sc[i].coins = make([]int, n)
		}
	}
	return sc
}

// fillEdgeMatrix is edgeMatrix into a reused header slice.
func fillEdgeMatrix(mat [][]int, view []Entry) {
	for i, ent := range view {
		mat[i] = ent.Edge
	}
}

// decodeViewAt is decodeView through pid i's scratch graph.
func (b *Bounded) decodeViewAt(i int, view []Entry) (*strip.Graph, error) {
	sc := &b.scratch[i]
	fillEdgeMatrix(sc.mat, view)
	g, err := strip.DecodeInto(sc.gView, sc.mat, b.cfg.K)
	if err != nil {
		return nil, fmt.Errorf("core: scanned view undecodable: %w", err)
	}
	sc.gView = g
	return g, nil
}

// Reset restores the instance to its initial state for pooling (core.Arena),
// reporting whether the memory stack supported it. The OnScan hook is
// cleared; instruments are not, because every run installs its own. Call
// only between runs.
func (b *Bounded) Reset() bool {
	r, ok := b.mem.(interface{ Reset() bool })
	if !ok || !r.Reset() {
		return false
	}
	for i := range b.rounds {
		b.rounds[i].Store(0)
		b.flips[i].Store(0)
	}
	b.maxAbsCoin.Store(0)
	b.OnScan = nil
	return true
}

// Name implements Protocol.
func (b *Bounded) Name() string { return "bounded" }

// Config returns the effective configuration.
func (b *Bounded) Config() Config { return b.cfg }

// install implements Protocol: the run's instruments go on the protocol and
// the whole memory stack beneath it, the monitor gets the flight-recorder
// state snapshot, and a meter gets the protocol's static layout: per process
// the entry carries pref + current_coin pointer + decided flag (core), K+1
// cyclic coin counters clamped to ±(M+1) (walk), and n mod-3K edge counters
// (strip). All bounded — this is the protocol whose meters must never move
// past their declared domains.
func (b *Bounded) install(in instruments) {
	b.instruments = in
	installMemory(b.mem, in)
	in.mon.SetStateFn(b.captureState)
	m := in.spc
	if m == nil {
		return
	}
	n, k := int64(b.cfg.N), int64(b.cfg.K)
	m.AddWords(space.LayerCore, n*3)
	m.AddWords(space.LayerWalk, n*(k+1))
	m.AddWords(space.LayerStrip, n*n)
	m.DeclareDomain(space.LayerCore, 3)   // pref {⊥,0,1}
	m.DeclareDomain(space.LayerCore, k+1) // current_coin pointer
	m.DeclareDomain(space.LayerWalk, 2*int64(b.params.M)+3)
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

// CoinParams returns the effective shared-coin parameters.
func (b *Bounded) CoinParams() walk.Params { return b.params }

// Metrics implements Protocol. Call only after the run completes.
func (b *Bounded) Metrics() Metrics {
	m := Metrics{
		Rounds:     make([]int64, b.cfg.N),
		CoinFlips:  make([]int64, b.cfg.N),
		MaxAbsCoin: b.maxAbsCoin.Load(),
	}
	for i := 0; i < b.cfg.N; i++ {
		m.Rounds[i] = b.rounds[i].Load()
		m.CoinFlips[i] = b.flips[i].Load()
	}
	return m
}

// inc is the paper's inc(round): advance the cyclic coin pointer, zero the
// slot that will serve the next round's coin, and recompute the edge-counter
// row from the scanned view via inc_graph.
func (b *Bounded) inc(p *sched.Proc, st Entry, view []Entry) (Entry, error) {
	k := b.cfg.K
	st = st.CloneCoin() // Edge is replaced wholesale by the fresh row below
	st.CurrentCoin = next(st.CurrentCoin, k)
	st.Coin[next(st.CurrentCoin, k)] = 0
	sc := &b.scratch[p.ID()]
	fillEdgeMatrix(sc.mat, view)
	sc.mat[p.ID()] = st.Edge
	row, err := strip.IncRowAudited(p.ID(), sc.mat, k, sc.gInc, p, b.sink, b.mon)
	if err != nil {
		return Entry{}, err
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
	return st, nil
}

// nextCoinValue is the paper's next_coin_value(round): assemble the counter
// array for the caller's current round from the scanned view — own current
// slot, plus the matching slot of every process at most K-1 rounds ahead —
// and evaluate the walk.
func (b *Bounded) nextCoinValue(i int, st Entry, view []Entry, g *strip.Graph) walk.Outcome {
	k := b.cfg.K
	c := b.scratch[i].coins
	for j := range view {
		switch {
		case j == i:
			c[j] = st.Coin[coinSlot(st.CurrentCoin, 0, k)]
		case g.Has[j][i] && g.W[j][i] < k:
			c[j] = view[j].Coin[coinSlot(view[j].CurrentCoin, g.W[j][i], k)]
		default:
			c[j] = 0 // more than K-1 ahead (contribution withdrawn) or behind
		}
	}
	return b.params.Value(c)
}

// flipNextCoin is the paper's flip_next_coin: one bounded walk step on the
// caller's coin counter for its current round.
func (b *Bounded) flipNextCoin(p *sched.Proc, st Entry) Entry {
	k := b.cfg.K
	st = st.CloneCoin() // only a coin slot is mutated; Edge stays shared
	slot := coinSlot(st.CurrentCoin, 0, k)
	st.Coin[slot] = b.params.StepCounterAudited(st.Coin[slot], p, b.sink, b.mon)
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
	span := obs.StartPhaseSpan(p.Steps())
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
	st, err := b.inc(p, st, view)
	if err != nil {
		panic(fmt.Sprintf("core: bounded proc %d: %v", i, err))
	}
	st.Pref = int8(input)
	b.mem.Write(p, st)
	b.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreStart, Round: b.rounds[i].Load(), Detail: "pref=" + prefString(st.Pref)})
	span.To(b.sink, obs.PhasePrefer, i, p.Now(), p.Steps())

	for {
		view := b.mem.Scan(p)
		normalizeView(view, b.cfg.N, b.cfg.K)
		view[i] = st // own slot: exactly what we last wrote
		if b.OnScan != nil {
			b.OnScan(i, view)
		}
		g, err := b.decodeViewAt(i, view)
		if err != nil {
			panic(fmt.Sprintf("core: bounded proc %d: %v", i, err))
		}
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
					b.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreDecide, Round: b.rounds[i].Load(), Detail: prefString(v) + " (fast)"})
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
			b.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreDecide, Round: b.rounds[i].Load(), Detail: prefString(st.Pref)})
			span.Finish(b.sink, i, p.Now(), p.Steps())
			return int(st.Pref)
		}

		// Lines 3-4: adopt the leaders' common value and advance a round.
		if v, ok := leadersAgree(view, g); ok {
			span.To(b.sink, obs.PhaseStrip, i, p.Now(), p.Steps())
			st, err = b.inc(p, st, view)
			if err != nil {
				panic(fmt.Sprintf("core: bounded proc %d: %v", i, err))
			}
			old := st.Pref
			st.Pref = v
			b.mem.Write(p, st)
			if old != v {
				b.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.CorePref, Round: b.rounds[i].Load(),
					Detail: prefString(old) + "->" + prefString(v)})
			}
			span.To(b.sink, obs.PhasePrefer, i, p.Now(), p.Steps())
			continue
		}

		// Lines 5-6: leaders disagree — withdraw the preference.
		if st.Pref != Bottom {
			old := st.Pref
			st.Pref = Bottom // value field: no clone needed
			b.mem.Write(p, st)
			b.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.CorePref, Round: b.rounds[i].Load(),
				Detail: prefString(old) + "->⊥"})
			continue
		}

		// Lines 7-8: drive the shared coin; adopt its outcome when decided.
		switch cv := b.nextCoinValue(i, st, view, g); cv {
		case walk.Undecided:
			span.To(b.sink, obs.PhaseCoin, i, p.Now(), p.Steps())
			st = b.flipNextCoin(p, st)
			b.mem.Write(p, st)
			span.To(b.sink, obs.PhasePrefer, i, p.Now(), p.Steps())
		default:
			b.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreCoin, Round: b.rounds[i].Load(), Detail: cv.String()})
			span.To(b.sink, obs.PhaseStrip, i, p.Now(), p.Steps())
			st, err = b.inc(p, st, view)
			if err != nil {
				panic(fmt.Sprintf("core: bounded proc %d: %v", i, err))
			}
			st.Pref = outcomeBit(cv)
			b.mem.Write(p, st)
			b.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.CorePref, Round: b.rounds[i].Load(),
				Detail: "⊥->" + prefString(st.Pref)})
			span.To(b.sink, obs.PhasePrefer, i, p.Now(), p.Steps())
		}
	}
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
