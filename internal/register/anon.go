package register

import (
	"sync"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/sched"
)

// DirectMRMW is a direct atomic model of a multi-writer multi-reader
// register: any process may read or write, one operation is one atomic step.
// It is the primitive of Gelashvili's anonymous-process setting ("On the
// Optimal Space Complexity of Consensus for Anonymous Processes"), where
// registers carry no ownership and protocols may not index them — or their
// payloads — by process id. Unlike MRMW (the Vitányi–Awerbuch construction
// from pid-owned SWMR cells), it deliberately has no owner or party check
// and no per-process structure; anonymity is enforced by construction in the
// protocol that uses it.
//
// Storage mirrors SWMR: a plain value under the deterministic substrate,
// guarded by the mutex only for racing processes, and a padded atomic cell in
// native mode (see SWMR.SetNative).
type DirectMRMW[T any] struct {
	fp     int64 // footprint key for commuting dispatch
	sink   *obs.Sink
	native bool
	space  spaceMark
	mu     sync.Mutex
	v      T
	cell   natCell[T]
}

// NewDirectMRMW returns a multi-writer register initialized to init. Native
// mode can be chosen at construction so lazily grown register files match
// the substrate of the run that grows them.
func NewDirectMRMW[T any](init T, native bool) *DirectMRMW[T] {
	r := &DirectMRMW[T]{fp: sched.NewFootprintKey(), v: init}
	if native {
		r.SetNative(true)
	}
	return r
}

// SetSink installs the observability sink (call before the run starts, or at
// creation time for lazily grown registers).
func (r *DirectMRMW[T]) SetSink(s *obs.Sink) { r.sink = s }

// SetSpace implements SpaceSetter: one physical register.
func (r *DirectMRMW[T]) SetSpace(m *space.Meter, l space.Layer) { r.space.set(m, l, 1) }

// SetNative switches the storage mode (see SWMR.SetNative: call only while
// no process is active).
func (r *DirectMRMW[T]) SetNative(on bool) {
	if on == r.native {
		return
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
func (r *DirectMRMW[T]) Read(p *sched.Proc) T {
	p.DeclareRead(r.fp)
	p.Step()
	emitOp(r.sink, p, obs.RegMRMWRead, int64(p.ID()))
	if r.native {
		return *r.cell.v.Load()
	}
	if !p.Races() {
		return r.v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.v
}

// Write stores v. One atomic step. Any process may write.
func (r *DirectMRMW[T]) Write(p *sched.Proc, v T) {
	p.DeclareWrite(r.fp)
	p.Step()
	emitOp(r.sink, p, obs.RegMRMWWrite, int64(p.ID()))
	r.space.markWrite()
	if r.native {
		c := new(T)
		*c = v
		r.cell.v.Store(c)
		return
	}
	if !p.Races() {
		r.v = v
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.v = v
}

// Peek returns the current value without a scheduler step or process context
// (test oracles and flight dumps only).
func (r *DirectMRMW[T]) Peek() T {
	if r.native {
		return *r.cell.v.Load()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.v
}

// Reset restores the register to the initial value v between runs (pooling
// path only).
func (r *DirectMRMW[T]) Reset(v T) {
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
