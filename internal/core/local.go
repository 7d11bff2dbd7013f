package core

import (
	"fmt"
	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/pad"
	"github.com/dsrepro/consensus/internal/register"
	"github.com/dsrepro/consensus/internal/scan"
	"github.com/dsrepro/consensus/internal/sched"
	"github.com/dsrepro/consensus/internal/strip"
)

// ExpLocal is the exponential-time, bounded-space baseline (Abrahamson-style
// as reconstructed over the paper's bounded rounds strip): identical control
// structure to the bounded protocol, but conflicts are resolved by each
// process flipping an *independent local* coin instead of driving the shared
// coin. Agreement then requires the independent flips to coincide, which
// happens with exponentially small probability as n grows — the behaviour the
// shared coin exists to fix. It is an exact ablation: same substrate, same
// decide rule, only the randomness source differs.
type ExpLocal struct {
	cfg Config
	mem scan.Memory[Entry]

	rounds []pad.Int64
	flips  []pad.Int64

	// scratch[i] is pid i's decode working storage (owner-goroutine only).
	scratch []bscratch

	instruments

	// Flip chooses the preference adopted on a leader conflict. It defaults
	// to a fair local coin. Tests override it with a deterministic rule to
	// demonstrate the impossibility the paper's introduction cites: with
	// only atomic reads and writes, *deterministic* protocols can be
	// scheduled so that they never decide.
	Flip func(p *sched.Proc, cur int8) int8
}

// NewExpLocal builds an exponential-baseline instance. B and M are ignored
// (no shared coin).
func NewExpLocal(cfg Config) (*ExpLocal, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
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
	return &ExpLocal{
		cfg:     cfg,
		mem:     mem,
		rounds:  make([]pad.Int64, cfg.N),
		flips:   make([]pad.Int64, cfg.N),
		scratch: newScratch(cfg.N, cfg.K, false),
		Flip:    defaultLocalFlip,
	}, nil
}

// defaultLocalFlip is the fair local coin ExpLocal ships with (and Reset
// restores after a test override).
func defaultLocalFlip(p *sched.Proc, _ int8) int8 { return int8(p.Rand().Intn(2)) }

// decodeViewAt is decodeView through pid i's scratch graph.
func (l *ExpLocal) decodeViewAt(i int, view []Entry) (*strip.Graph, error) {
	sc := &l.scratch[i]
	fillEdgeMatrix(sc.mat, view)
	g, err := strip.DecodeInto(sc.gView, sc.mat, l.cfg.K)
	if err != nil {
		return nil, fmt.Errorf("core: scanned view undecodable: %w", err)
	}
	sc.gView = g
	return g, nil
}

// Reset restores the instance to its initial state for pooling (core.Arena),
// reporting whether the memory stack supported it. The Flip hook reverts to
// the fair local coin. Call only between runs.
func (l *ExpLocal) Reset() bool {
	r, ok := l.mem.(interface{ Reset() bool })
	if !ok || !r.Reset() {
		return false
	}
	for i := range l.rounds {
		l.rounds[i].Store(0)
		l.flips[i].Store(0)
	}
	l.Flip = defaultLocalFlip
	return true
}

// Name implements Protocol.
func (l *ExpLocal) Name() string { return "exp-local" }

// install implements Protocol (see Bounded.install). The space layout is
// identical to the bounded protocol's — the baseline keeps the coin slots in
// its entries, they just stay zero — so the frontier tables show it matching
// Bounded on space while losing on expected time.
func (l *ExpLocal) install(in instruments) {
	l.instruments = in
	installMemory(l.mem, in)
	in.mon.SetStateFn(l.captureState)
	m := in.spc
	if m == nil {
		return
	}
	n, k := int64(l.cfg.N), int64(l.cfg.K)
	m.AddWords(space.LayerCore, n*3)       // pref + pointer + decided flag
	m.AddWords(space.LayerWalk, n*(k+1))   // coin slots (present, always zero)
	m.AddWords(space.LayerStrip, n*n)      // one strip row per entry
	m.DeclareDomain(space.LayerCore, 3)    // pref ∈ {⊥,0,1}
	m.DeclareDomain(space.LayerCore, k+1)  // strip pointer
	m.DeclareDomain(space.LayerWalk, 1)    // slots never leave zero
	m.DeclareDomain(space.LayerStrip, 3*k) // counters mod 3K
}

// captureState snapshots the published state for flight dumps (no coin
// counters: this baseline's coin slots stay zero).
func (l *ExpLocal) captureState() audit.State {
	pk, ok := l.mem.(interface{ PeekSlot(j int) Entry })
	if !ok {
		return audit.State{}
	}
	n, k := l.cfg.N, l.cfg.K
	st := audit.State{
		Prefs:  make([]int, n),
		Rounds: make([]int64, n),
		Edges:  make([][]int, n),
	}
	for i := 0; i < n; i++ {
		e := pk.PeekSlot(i)
		if e.Coin == nil {
			e = NewEntry(n, k)
		}
		st.Prefs[i] = int(e.Pref)
		st.Rounds[i] = l.rounds[i].Load()
		st.Edges[i] = append([]int(nil), e.Edge...)
	}
	return st
}

// Metrics implements Protocol.
func (l *ExpLocal) Metrics() Metrics {
	m := Metrics{Rounds: make([]int64, l.cfg.N), CoinFlips: make([]int64, l.cfg.N)}
	for i := 0; i < l.cfg.N; i++ {
		m.Rounds[i] = l.rounds[i].Load()
		m.CoinFlips[i] = l.flips[i].Load()
	}
	return m
}

// inc advances the rounds strip exactly as the bounded protocol does (the
// coin slots exist but stay zero).
func (l *ExpLocal) inc(p *sched.Proc, st Entry, view []Entry) (Entry, error) {
	k := l.cfg.K
	st = st.CloneCoin() // Edge is replaced wholesale by the fresh row below
	st.CurrentCoin = next(st.CurrentCoin, k)
	sc := &l.scratch[p.ID()]
	fillEdgeMatrix(sc.mat, view)
	sc.mat[p.ID()] = st.Edge
	row, err := strip.IncRowAudited(p.ID(), sc.mat, k, sc.gInc, p, l.sink, l.mon)
	if err != nil {
		return Entry{}, err
	}
	st.Edge = row
	if l.spc.Enabled() {
		for _, v := range row {
			l.spc.NoteValue(space.LayerStrip, int64(v))
		}
		l.spc.NoteValue(space.LayerCore, int64(st.CurrentCoin))
		l.spc.NoteValue(space.LayerCore, int64(st.Pref))
	}
	l.rounds[p.ID()].Add(1)
	l.sink.Emit(obs.Event{Step: p.Now(), Pid: p.ID(), Kind: obs.CoreRound, Round: l.rounds[p.ID()].Load()})
	return st, nil
}

// Run implements Protocol for one process.
func (l *ExpLocal) Run(p *sched.Proc, input int) int {
	i := p.ID()
	st := NewEntry(l.cfg.N, l.cfg.K)
	span := obs.StartPhaseSpan(p.Steps())
	if l.prof.Enabled() {
		span.Observe(l.prof)
	}

	view := l.mem.Scan(p)
	normalizeView(view, l.cfg.N, l.cfg.K)
	span.To(l.sink, obs.PhaseStrip, i, p.Now(), p.Steps())
	st, err := l.inc(p, st, view)
	if err != nil {
		panic(fmt.Sprintf("core: exp-local proc %d: %v", i, err))
	}
	st.Pref = int8(input)
	l.mem.Write(p, st)
	span.To(l.sink, obs.PhasePrefer, i, p.Now(), p.Steps())

	for {
		view := l.mem.Scan(p)
		normalizeView(view, l.cfg.N, l.cfg.K)
		view[i] = st
		g, err := l.decodeViewAt(i, view)
		if err != nil {
			panic(fmt.Sprintf("core: exp-local proc %d: %v", i, err))
		}
		if l.mon.AuditGraphs() {
			l.mon.GraphResult(p.Now(), i, g.Validate())
		}

		if st.Pref != Bottom && g.Leader(i) && disagreersTrailByK(view, g, i, st.Pref) {
			span.To(l.sink, obs.PhaseDecide, i, p.Now(), p.Steps())
			l.sink.Observe(obs.HistStepsToDecide, p.Steps())
			l.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreDecide, Round: l.rounds[i].Load(), Detail: prefString(st.Pref)})
			span.Finish(l.sink, i, p.Now(), p.Steps())
			return int(st.Pref)
		}

		if v, ok := leadersAgree(view, g); ok {
			span.To(l.sink, obs.PhaseStrip, i, p.Now(), p.Steps())
			st, err = l.inc(p, st, view)
			if err != nil {
				panic(fmt.Sprintf("core: exp-local proc %d: %v", i, err))
			}
			st.Pref = v
			l.mem.Write(p, st)
			span.To(l.sink, obs.PhasePrefer, i, p.Now(), p.Steps())
			continue
		}

		// Conflict: first withdraw the preference at the same round (the
		// paper's lines 5-6 — the pause is load-bearing: without it a
		// climbing process can pass a decided leader without ever seeing
		// it, breaking consistency at ~1/2000 schedules), then adopt an
		// independent local coin flip and advance.
		if st.Pref != Bottom {
			old := st.Pref
			st.Pref = Bottom // value field: no clone needed
			l.mem.Write(p, st)
			l.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.CorePref, Round: l.rounds[i].Load(),
				Detail: prefString(old) + "->⊥"})
			continue
		}
		span.To(l.sink, obs.PhaseStrip, i, p.Now(), p.Steps())
		st, err = l.inc(p, st, view)
		if err != nil {
			panic(fmt.Sprintf("core: exp-local proc %d: %v", i, err))
		}
		span.To(l.sink, obs.PhaseCoin, i, p.Now(), p.Steps())
		st.Pref = l.Flip(p, st.Pref)
		l.flips[i].Add(1)
		l.mem.Write(p, st)
		l.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreFlip, Round: l.rounds[i].Load(),
			Detail: "local=" + prefString(st.Pref)})
		span.To(l.sink, obs.PhasePrefer, i, p.Now(), p.Steps())
	}
}
