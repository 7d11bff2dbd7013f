// Package register models the atomic read/write registers the paper builds
// on: single-writer multi-reader (SWMR) atomic registers, toggle-bit wrappers
// (the paper adds an alternating bit to every V_i so consecutive writes always
// differ), and two-writer two-reader (2W2R) atomic registers — both a direct
// model and Bloom's 1987 construction of a 2W2R register from two SWMR
// registers, the construction the paper cites for its arrow registers.
//
// Every register operation counts as one atomic step of the owning process:
// implementations call Proc.Step before touching shared state, so under the
// step scheduler (package sched) register operations serialize exactly at the
// scheduler's grant points. On the simulated substrate a mutex guards the
// stored value; the step scheduler already serializes every access, so the
// mutex is never contended and costs one uncontended Lock/Unlock pair per
// operation.
//
// On the native substrate (sched.NewNative) registers switch to lock-free
// storage instead: SetNative(true) moves the value into a cache-line-padded
// sync/atomic cell, so concurrent process goroutines are serialized by the
// hardware's atomics rather than by a mutex. The mode is set by
// core.ExecuteProto before the run starts and propagates down the memory
// stack exactly like SetSink; it must never be flipped while processes are
// active.
package register

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/sched"
)

// SpaceSetter is implemented by every register (and the scannable memories
// built from them) so a space meter installed at the top of a protocol stack
// propagates down to each primitive. Installing a meter (re)declares the
// register under the given layer and re-arms its first-write liveness mark;
// a nil meter detaches. Call before the run starts, never while processes
// are active.
type SpaceSetter interface {
	SetSpace(m *space.Meter, l space.Layer)
}

// spaceMark is the embedded per-register liveness bookkeeping: the meter a
// register reports to and a CAS-guarded first-write flag, atomic so the
// native substrate's concurrent writers mark exactly once.
type spaceMark struct {
	spc     *space.Meter
	layer   space.Layer
	touched atomic.Bool
}

// set installs the meter (nil detaches), declaring regs physical registers
// and re-arming the first-write mark.
func (s *spaceMark) set(m *space.Meter, l space.Layer, regs int64) {
	s.spc = m
	s.layer = l
	s.touched.Store(false)
	m.AddRegs(l, regs)
}

// markWrite records the register's first write of the run. It takes no
// scheduler steps and allocates nothing, so metered runs stay byte-identical
// to unmetered ones.
func (s *spaceMark) markWrite() {
	if s.spc != nil && !s.touched.Load() && s.touched.CompareAndSwap(false, true) {
		s.spc.RegTouched(s.layer)
	}
}

// NativeSetter is implemented by every register and scannable memory so the
// storage mode chosen by the substrate propagates down a protocol stack the
// same way sinks do.
type NativeSetter interface {
	SetNative(on bool)
}

// natCell is the native-mode storage of a generic register: an atomic
// pointer to an immutable snapshot of the value, padded on both sides so two
// registers adjacent in memory never share a cache line. Each Write
// publishes a fresh snapshot allocation — the price of generic atomicity —
// which is why the deterministic substrate keeps its allocation-free mutex
// path instead of unifying on this one.
type natCell[T any] struct {
	_ [64]byte
	v atomic.Pointer[T]
	_ [56]byte
}

// SinkSetter is implemented by every register (and by the scannable
// memories built from them) so an observability sink installed at the top of
// a protocol stack propagates down to each primitive.
type SinkSetter interface {
	SetSink(*obs.Sink)
}

// SWMR is a single-writer multi-reader atomic register holding a value of
// type T. Only the owner process may write; any process may read. It models a
// hardware atomic register: one read or write is one atomic step.
type SWMR[T any] struct {
	owner  int
	fp     int64 // footprint key for commuting dispatch (sched.NewFootprintKey)
	sink   *obs.Sink
	native bool
	space  spaceMark
	mu     sync.Mutex
	v      T
	cell   natCell[T]
}

// NewSWMR returns an SWMR register owned (writable) by process owner,
// initialized to init.
func NewSWMR[T any](owner int, init T) *SWMR[T] {
	return &SWMR[T]{owner: owner, fp: sched.NewFootprintKey(), v: init}
}

// Owner returns the pid of the register's single writer.
func (r *SWMR[T]) Owner() int { return r.owner }

// SetSink installs the observability sink (call before the run starts).
func (r *SWMR[T]) SetSink(s *obs.Sink) { r.sink = s }

// SetSpace implements SpaceSetter: one physical register.
func (r *SWMR[T]) SetSpace(m *space.Meter, l space.Layer) { r.space.set(m, l, 1) }

// SetNative switches the storage mode (call before the run starts, never
// while processes are active): true moves the current value into the padded
// atomic cell for the native substrate, false folds it back into the mutex
// storage for the deterministic one.
func (r *SWMR[T]) SetNative(on bool) {
	if on == r.native {
		return // idempotent: a pooled register may be re-armed between runs
	}
	if on {
		v := r.v
		r.cell.v.Store(&v)
	} else {
		r.v = *r.cell.v.Load()
	}
	r.native = on
}

// Read returns the register's current value. One atomic step.
func (r *SWMR[T]) Read(p *sched.Proc) T {
	p.DeclareRead(r.fp)
	p.Step()
	r.sink.Emit(obs.Event{Step: p.Now(), Pid: p.ID(), Kind: obs.RegSWMRRead, Value: int64(r.owner)})
	if r.native {
		return *r.cell.v.Load()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.v
}

// Write stores v. One atomic step. Calling Write from a process other than
// the owner is a bug in the algorithm under simulation and panics.
func (r *SWMR[T]) Write(p *sched.Proc, v T) {
	if p.ID() != r.owner {
		panic(fmt.Sprintf("register: process %d wrote SWMR register owned by %d", p.ID(), r.owner))
	}
	p.DeclareWrite(r.fp)
	p.Step()
	r.sink.Emit(obs.Event{Step: p.Now(), Pid: p.ID(), Kind: obs.RegSWMRWrite, Value: int64(r.owner)})
	r.space.markWrite()
	if r.native {
		// Copy via new(T) rather than &v: taking the parameter's address
		// would make it escape on the simulated path too, breaking the
		// zero-alloc guarantee the mutex mode keeps.
		c := new(T)
		*c = v
		r.cell.v.Store(c)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.v = v
}

// Peek returns the current value without a scheduler step or process context.
// It is for test oracles and metrics collection only — never for algorithm
// logic, which must pay for its reads.
func (r *SWMR[T]) Peek() T {
	if r.native {
		// Native Peek stays safe mid-run (flight dumps snapshot state while
		// other goroutines are in flight): it is one atomic load.
		return *r.cell.v.Load()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.v
}

// Reset restores the register to the initial value v without a scheduler step.
// It is part of the instance-pooling path (see core.Arena) and must only be
// called between runs, never while simulated processes are active.
func (r *SWMR[T]) Reset(v T) {
	if r.native {
		c := new(T)
		*c = v
		r.cell.v.Store(c)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.v = v
}

// Toggled pairs a value with the paper's alternating bit: "an alternating bit
// field is assumed to be added to each register V_i, such that two values
// written in consecutive writes by the same process, always differ" (§2.2).
type Toggled[T any] struct {
	Val    T
	Toggle bool
}

// ToggledSWMR wraps an SWMR register so every write flips the toggle bit.
// The writer tracks the bit locally (it is the only writer).
type ToggledSWMR[T any] struct {
	reg   *SWMR[Toggled[T]]
	next  bool
	mon   *audit.Monitor
	regID int
}

// NewToggledSWMR returns a toggle-bit SWMR register owned by owner.
func NewToggledSWMR[T any](owner int, init T) *ToggledSWMR[T] {
	return &ToggledSWMR[T]{reg: NewSWMR(owner, Toggled[T]{Val: init}), next: true}
}

// SetSink installs the observability sink on the wrapped register.
func (r *ToggledSWMR[T]) SetSink(s *obs.Sink) { r.reg.SetSink(s) }

// SetSpace installs the space meter on the wrapped register (the toggle bit
// is part of the same physical register, accounted as scan-layer overhead by
// the memory that owns this wrapper).
func (r *ToggledSWMR[T]) SetSpace(m *space.Meter, l space.Layer) { r.reg.SetSpace(m, l) }

// SetNative switches the wrapped register's storage mode. The toggle-bit
// bookkeeping needs no change: r.next is owner-local state.
func (r *ToggledSWMR[T]) SetNative(on bool) { r.reg.SetNative(on) }

// SetMonitor attaches the invariant monitor's sampled register-regularity
// probe, identifying this register as id in recorded histories (a nil m
// detaches). The toggle bit doubles as the recorded value: it alternates on
// every write, which is exactly what makes the regularity check decisive.
func (r *ToggledSWMR[T]) SetMonitor(m *audit.Monitor, id int) {
	r.mon = m
	r.regID = id
}

// Read returns the current value and toggle bit. One atomic step.
func (r *ToggledSWMR[T]) Read(p *sched.Proc) Toggled[T] {
	if !r.mon.AuditRegisters() {
		return r.reg.Read(p)
	}
	start := p.Now()
	v := r.reg.Read(p)
	r.mon.RegOp(r.regID, p.ID(), false, toggleInt(v.Toggle), start, p.Now())
	return v
}

// Write stores v with a flipped toggle bit. One atomic step.
func (r *ToggledSWMR[T]) Write(p *sched.Proc, v T) {
	if !r.mon.AuditRegisters() {
		r.reg.Write(p, Toggled[T]{Val: v, Toggle: r.next})
		r.next = !r.next
		return
	}
	start := p.Now()
	tog := r.next
	r.reg.Write(p, Toggled[T]{Val: v, Toggle: tog})
	r.next = !r.next
	r.mon.RegOp(r.regID, p.ID(), true, toggleInt(tog), start, p.Now())
}

func toggleInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Peek is the no-step test/metrics accessor.
func (r *ToggledSWMR[T]) Peek() Toggled[T] { return r.reg.Peek() }

// Reset restores the register to its initial state (value v, toggle cleared,
// next write toggling to true) between runs. Pooling path only.
func (r *ToggledSWMR[T]) Reset(v T) {
	r.reg.Reset(Toggled[T]{Val: v})
	r.next = true
}

// TwoWriter is a two-writer two-reader atomic boolean register, the primitive
// the paper's arrow registers A_ij require. Implementations are provided both
// as a direct atomic model (Direct2W) and as Bloom's construction from SWMR
// registers (Bloom2W); the scannable memory accepts either via this
// interface.
type TwoWriter interface {
	// Read returns the current bit. p must be one of the two parties.
	Read(p *sched.Proc) bool
	// Write stores the bit. p must be one of the two parties.
	Write(p *sched.Proc, v bool)
}

// Direct2W is the direct atomic model of a 2W2R boolean register: one read or
// write is one atomic step. It stands in for the bounded constructions cited
// by the paper when experiments do not need sub-operation granularity.
type Direct2W struct {
	a, b   int   // the two parties allowed to access the register
	fp     int64 // footprint key for commuting dispatch
	sink   *obs.Sink
	native bool
	space  spaceMark
	mu     sync.Mutex
	v      bool
	cell   natBoolCell
}

// natBoolCell is the native-mode storage of a boolean register: a padded
// atomic.Bool (no pointer indirection, no per-write allocation).
type natBoolCell struct {
	_ [64]byte
	v atomic.Bool
	_ [63]byte
}

// NewDirect2W returns a direct-model 2W2R register shared by processes a and b.
func NewDirect2W(a, b int, init bool) *Direct2W {
	return &Direct2W{a: a, b: b, fp: sched.NewFootprintKey(), v: init}
}

func (r *Direct2W) checkParty(pid int) {
	if pid != r.a && pid != r.b {
		panic(fmt.Sprintf("register: process %d accessed 2W2R register of (%d,%d)", pid, r.a, r.b))
	}
}

// SetSink installs the observability sink.
func (r *Direct2W) SetSink(s *obs.Sink) { r.sink = s }

// SetSpace implements SpaceSetter: one physical register holding one
// boolean word.
func (r *Direct2W) SetSpace(m *space.Meter, l space.Layer) {
	r.space.set(m, l, 1)
	m.AddWords(l, 1)
	m.DeclareDomain(l, 2)
}

// SetNative switches the storage mode (see SWMR.SetNative).
func (r *Direct2W) SetNative(on bool) {
	if on == r.native {
		return // idempotent: a pooled register may be re-armed between runs
	}
	if on {
		r.cell.v.Store(r.v)
	} else {
		r.v = r.cell.v.Load()
	}
	r.native = on
}

// Read implements TwoWriter. One atomic step.
func (r *Direct2W) Read(p *sched.Proc) bool {
	r.checkParty(p.ID())
	p.DeclareRead(r.fp)
	p.Step()
	r.sink.Emit(obs.Event{Step: p.Now(), Pid: p.ID(), Kind: obs.Reg2WRead})
	if r.native {
		return r.cell.v.Load()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.v
}

// Write implements TwoWriter. One atomic step.
func (r *Direct2W) Write(p *sched.Proc, v bool) {
	r.checkParty(p.ID())
	p.DeclareWrite(r.fp)
	p.Step()
	r.sink.Emit(obs.Event{Step: p.Now(), Pid: p.ID(), Kind: obs.Reg2WWrite})
	r.space.markWrite()
	if r.native {
		r.cell.v.Store(v)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.v = v
}

// Reset restores the register to the initial bit between runs. Pooling path
// only.
func (r *Direct2W) Reset(v bool) {
	if r.native {
		r.cell.v.Store(v)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.v = v
}

// Bloom2W implements a two-writer atomic boolean register from two SWMR
// atomic registers, after B. Bloom, "Constructing two-writer atomic
// registers" (PODC 1987) — the construction the paper cites ([Bl87]) as a
// source of bounded 2W2R registers.
//
// Each writer w ∈ {0,1} owns an SWMR sub-register holding (value, tag).
// Writer 0 writes its value with tag equal to writer 1's current tag; writer
// 1 writes its value with tag equal to the complement of writer 0's current
// tag. Tags equal ⇒ writer 0 wrote last; tags differ ⇒ writer 1 wrote last. A
// reader reads both sub-registers and returns the value of the later writer.
// A write costs two atomic steps (read other tag, write own sub-register); a
// read costs two atomic steps.
type Bloom2W struct {
	a, b  int // a plays Bloom writer 0, b plays writer 1
	sink  *obs.Sink
	sub   [2]*SWMR[bloomCell]
	party func(pid int) int
}

type bloomCell struct {
	val bool
	tag bool
}

// NewBloom2W returns a Bloom-construction 2W2R register shared by processes
// a and b (a is Bloom's writer 0, b is writer 1).
func NewBloom2W(a, b int, init bool) *Bloom2W {
	r := &Bloom2W{a: a, b: b}
	// Initial state: tags equal, writer 0's cell holds the initial value —
	// consistent with "writer 0 wrote last".
	r.sub[0] = NewSWMR(a, bloomCell{val: init})
	r.sub[1] = NewSWMR(b, bloomCell{})
	return r
}

func (r *Bloom2W) role(pid int) int {
	switch pid {
	case r.a:
		return 0
	case r.b:
		return 1
	default:
		panic(fmt.Sprintf("register: process %d accessed Bloom 2W2R register of (%d,%d)", pid, r.a, r.b))
	}
}

// SetSink installs the observability sink on the wrapper and both SWMR
// sub-registers, so Bloom-level and SWMR-level operations are both accounted.
func (r *Bloom2W) SetSink(s *obs.Sink) {
	r.sink = s
	r.sub[0].SetSink(s)
	r.sub[1].SetSink(s)
}

// SetNative switches both SWMR sub-registers' storage mode. The construction
// itself needs no change: its correctness argument only assumes the
// sub-registers are atomic, which both storage modes provide.
func (r *Bloom2W) SetNative(on bool) {
	r.sub[0].SetNative(on)
	r.sub[1].SetNative(on)
}

// SetSpace installs the space meter on both SWMR sub-registers: the Bloom
// construction's physical footprint is its two single-writer halves, each
// holding a (value, tag) pair of booleans.
func (r *Bloom2W) SetSpace(m *space.Meter, l space.Layer) {
	r.sub[0].SetSpace(m, l)
	r.sub[1].SetSpace(m, l)
	m.AddWords(l, 4)
	m.DeclareDomain(l, 2)
}

// Write implements TwoWriter. Two atomic steps.
func (r *Bloom2W) Write(p *sched.Proc, v bool) {
	r.sink.Count(obs.RegBloomWrite)
	w := r.role(p.ID())
	other := r.sub[1-w].Read(p)
	tag := other.tag
	if w == 1 {
		tag = !tag
	}
	r.sub[w].Write(p, bloomCell{val: v, tag: tag})
}

// Read implements TwoWriter. Two atomic steps.
func (r *Bloom2W) Read(p *sched.Proc) bool {
	r.sink.Count(obs.RegBloomRead)
	r.role(p.ID()) // enforce that only the two parties access the register
	c0 := r.sub[0].Read(p)
	c1 := r.sub[1].Read(p)
	if c0.tag == c1.tag {
		return c0.val // writer 0 wrote last
	}
	return c1.val // writer 1 wrote last
}

// Reset restores the register to the initial bit between runs (tags equal,
// writer 0's cell holding the value — the construction's initial state).
// Pooling path only.
func (r *Bloom2W) Reset(v bool) {
	r.sub[0].Reset(bloomCell{val: v})
	r.sub[1].Reset(bloomCell{})
}

// TwoWriterResetter is the optional Reset capability of a TwoWriter; both
// provided implementations have it, and the scannable memory's own Reset
// reports failure when a custom register lacks it.
type TwoWriterResetter interface {
	Reset(v bool)
}

// TwoWriterFactory builds a 2W2R register for parties (a, b); it lets the
// scannable memory be assembled over either register substrate.
type TwoWriterFactory func(a, b int, init bool) TwoWriter

// DirectFactory builds direct-model 2W2R registers.
func DirectFactory(a, b int, init bool) TwoWriter { return NewDirect2W(a, b, init) }

// BloomFactory builds Bloom-construction 2W2R registers over SWMR registers.
func BloomFactory(a, b int, init bool) TwoWriter { return NewBloom2W(a, b, init) }
