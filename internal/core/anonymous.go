package core

import (
	"sync"
	"sync/atomic"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/pad"
	"github.com/dsrepro/consensus/internal/register"
	"github.com/dsrepro/consensus/internal/sched"
)

// Anonymous is a consensus protocol in Gelashvili's anonymous setting ("On
// the Optimal Space Complexity of Consensus for Anonymous Processes"):
// processes have no identifiers, every process runs the same code, and no
// register payload or register index may depend on a pid. The paper's own
// layout — one SWMR entry per process, indexed by pid — is therefore
// unavailable; everything lives in multi-writer registers.
//
// The protocol is a round-based conciliator/commit–adopt loop:
//
//   - Conciliator (probabilistic): each round has one MRMW register S. A
//     process reads S and adopts a non-⊥ value; otherwise it writes its own
//     preference with probability 1/2 (and on tails looks again). With
//     constant probability the surviving preferences agree.
//   - Commit–adopt (Gafni-style, binary): registers A0, A1, D. With value v:
//     set A[v]; if A[1−v] is set, adopt D (or keep v if D=⊥) and continue;
//     else write D:=v and re-read A[1−v] — still clear means commit (decide
//     v), set means adopt v. If any process commits v in a round, every
//     process leaving that round holds v: A-bits are never cleared, so a
//     later 1−v arrival must see A[v] set and adopt D, and no D:=1−v write
//     can be ordered after the committer's A[v] write without contradicting
//     its final clear read of A[1−v].
//
// Space shape (the point of including it in the frontier tables): each
// register is 2 bits wide — the payload domain is {⊥,0,1} — but the register
// COUNT grows with rounds (4 per round, created lazily), where the paper's
// protocol holds n fixed registers of bounded width. The meters show exactly
// this trade: tiny max-bits, unbounded peak-regs.
type Anonymous struct {
	cfg Config

	mu   sync.RWMutex
	rnds []anonRound

	// Per-pid counters and the last adopted preference, for metrics and
	// flight dumps only — the protocol itself never consults them (anonymity
	// is a property of the shared registers, not of the harness).
	counters
	prefs    []pad.Int64
	maxRound atomic.Int64

	instruments
}

// anonRound is one round's register quartet: the conciliator register S and
// the commit–adopt registers A0, A1, D.
type anonRound struct {
	s, a0, a1, d *register.DirectMRMW[int8]
}

func (rd anonRound) each(f func(*register.DirectMRMW[int8])) {
	f(rd.s)
	f(rd.a0)
	f(rd.a1)
	f(rd.d)
}

// NewAnonymous builds an anonymous-setting instance. K, B and M are ignored
// (no strip, no shared coin).
func NewAnonymous(cfg Config) (*Anonymous, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Anonymous{
		cfg:      cfg,
		counters: newCounters(cfg.N),
		prefs:    make([]pad.Int64, cfg.N),
	}
	for i := range a.prefs {
		a.prefs[i].Store(int64(Bottom))
	}
	return a, nil
}

// Name implements Protocol.
func (a *Anonymous) Name() string { return "anonymous" }

// round returns round r's register quartet, creating it (and any missing
// earlier rounds) on first touch. Creation installs the run's sink, space
// meter and storage mode, and meters the growth online: four registers and
// four payload words per round — the register count is where this protocol
// pays for anonymity.
func (a *Anonymous) round(r int64) anonRound {
	idx := int(r) - 1
	a.mu.RLock()
	if idx < len(a.rnds) {
		rd := a.rnds[idx]
		a.mu.RUnlock()
		return rd
	}
	a.mu.RUnlock()
	a.mu.Lock()
	for idx >= len(a.rnds) {
		rd := anonRound{
			s:  register.NewDirectMRMW(Bottom, a.native),
			a0: register.NewDirectMRMW(int8(0), a.native),
			a1: register.NewDirectMRMW(int8(0), a.native),
			d:  register.NewDirectMRMW(Bottom, a.native),
		}
		rd.each(func(reg *register.DirectMRMW[int8]) {
			reg.SetSink(a.sink)
			reg.SetSpace(a.spc, space.LayerRegister)
		})
		a.spc.AddWords(space.LayerCore, 4)
		a.rnds = append(a.rnds, rd)
	}
	rd := a.rnds[idx]
	a.mu.Unlock()
	return rd
}

// install implements Protocol. There is no memory stack beneath: the run's
// instruments go on the protocol and every register created so far, and
// rounds created later pick them up in round(). There is no scan layer
// either, so a profiler sees only the phase spans. Almost all space is
// metered online in round(): the static part is only the payload domain —
// every register holds a value in {⊥,0,1}, two bits.
func (a *Anonymous) install(in instruments) {
	a.mu.Lock()
	a.instruments = in
	for _, rd := range a.rnds {
		rd.each(func(reg *register.DirectMRMW[int8]) {
			reg.SetNative(in.native)
			reg.SetSink(in.sink)
			reg.SetSpace(in.spc, space.LayerRegister)
		})
	}
	a.mu.Unlock()
	in.mon.SetStateFn(a.captureState)
	if m := in.spc; m != nil {
		m.AddWords(space.LayerCore, int64(len(a.rnds))*4)
		m.DeclareDomain(space.LayerCore, 3) // every payload is in {⊥,0,1}
	}
}

// captureState snapshots per-pid adopted preferences and round counts for
// flight dumps (harness-side mirrors; the registers themselves are
// anonymous).
func (a *Anonymous) captureState() audit.State {
	n := a.cfg.N
	st := audit.State{Prefs: make([]int, n), Rounds: make([]int64, n)}
	for i := 0; i < n; i++ {
		st.Prefs[i] = int(a.prefs[i].Load())
		st.Rounds[i] = a.rounds[i].Load()
	}
	return st
}

// Reset restores the instance to its initial state for pooling, dropping all
// lazily-created rounds (they are re-created, and re-metered, on the next
// run). Call only between runs.
func (a *Anonymous) Reset() bool {
	a.mu.Lock()
	a.rnds = a.rnds[:0]
	a.mu.Unlock()
	a.counters.reset()
	for i := range a.prefs {
		a.prefs[i].Store(int64(Bottom))
	}
	a.maxRound.Store(0)
	return true
}

// Metrics implements Protocol.
func (a *Anonymous) Metrics() Metrics {
	m := a.counters.metrics()
	m.MaxRound = a.maxRound.Load()
	return m
}

// Run implements Protocol for one process: conciliate, then commit–adopt,
// decide on commit.
func (a *Anonymous) Run(p *sched.Proc, input int) int {
	i := p.ID()
	v := int8(input)
	a.prefs[i].Store(int64(v))
	span := obs.StartPhaseSpan(p.Steps())
	if a.prof.Enabled() {
		span.Observe(a.prof)
	}
	emitDetail(a.sink, obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreStart}, "pref=", prefString(v))

	for r := int64(1); ; r++ {
		rd := a.round(r)
		a.rounds[i].Add(1)
		atomicMax(&a.maxRound, r)
		a.sink.GaugeMax(obs.GaugeMaxRound, r)
		a.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreRound, Round: r})

		// Conciliator: adopt a published value, or publish with prob 1/2.
		span.To(a.sink, obs.PhaseCoin, i, p.Now(), p.Steps())
		if s := rd.s.Read(p); s != Bottom {
			v = s
		} else if p.Rand().Intn(2) == 0 {
			rd.s.Write(p, v)
			a.flips[i].Add(1)
			emitDetail(a.sink, obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreFlip, Round: r}, "anon=", prefString(v))
		} else {
			a.flips[i].Add(1)
			a.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreFlip, Round: r, Detail: "anon=skip"})
			if s := rd.s.Read(p); s != Bottom {
				v = s
			}
		}
		a.spc.NoteValue(space.LayerCore, int64(v))
		a.prefs[i].Store(int64(v))

		// Commit–adopt.
		span.To(a.sink, obs.PhasePrefer, i, p.Now(), p.Steps())
		my, other := rd.a0, rd.a1
		if v == 1 {
			my, other = rd.a1, rd.a0
		}
		my.Write(p, 1)
		if other.Read(p) != 0 {
			// Conflict seen before proposing: adopt the proposal register.
			if d := rd.d.Read(p); d != Bottom {
				v = d
				emitDetail(a.sink, obs.Event{Step: p.Now(), Pid: i, Kind: obs.CorePref, Round: r}, "adopt=", prefString(v))
			}
			a.prefs[i].Store(int64(v))
			continue
		}
		rd.d.Write(p, v)
		a.spc.NoteValue(space.LayerCore, int64(v))
		if other.Read(p) == 0 {
			span.To(a.sink, obs.PhaseDecide, i, p.Now(), p.Steps())
			a.sink.Observe(obs.HistStepsToDecide, p.Steps())
			emitDetail(a.sink, obs.Event{Step: p.Now(), Pid: i, Kind: obs.CoreDecide, Round: r}, prefString(v))
			span.Finish(a.sink, i, p.Now(), p.Steps())
			return int(v)
		}
	}
}
