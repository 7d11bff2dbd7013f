// Package scan implements the paper's §2 scannable memory: an n-slot shared
// abstract data type with per-process write and a scan returning a snapshot
// view satisfying regularity (P1), snapshot (P2), and scan serializability
// (P3).
//
// Three implementations are provided:
//
//   - Arrow: the paper's bounded construction from SWMR registers with toggle
//     bits plus pairs of 2W2R "arrow" registers and a double collect.
//   - SeqSnap: an unbounded baseline that tags every write with a monotone
//     sequence number and double-collects until clean; it satisfies P1–P3 but
//     its registers grow without bound (the behaviour the paper eliminates).
//   - Collect: a single-collect baseline that is only regular — it satisfies
//     P1 but can violate P2/P3; it exists as a negative control for the
//     property checker in properties.go.
//
// As in the paper, write is wait-free while scan may retry as long as new
// writes keep completing (it never waits for other scans).
package scan

import (
	"fmt"
	"math"
	"sync/atomic"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/obs/prof"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/pad"
	"github.com/dsrepro/consensus/internal/register"
	"github.com/dsrepro/consensus/internal/sched"
)

// MutTornScan is the scan layer's fault injector: when enabled, Arrow.Scan
// ignores the toggle-bit comparison between its two collects, so a scan
// overlapped by exactly one write returns a torn double collect as if it
// were clean — the bug ProbeScanHandshake exists to catch. Registered as
// "scan.torn".
var MutTornScan atomic.Bool

func init() { audit.RegisterMutation("scan.torn", &MutTornScan) }

// Memory is the scannable-memory abstract data type shared by n processes.
// Slot i is written only by process i; Scan returns one value per slot.
type Memory[T any] interface {
	// Write stores v in the calling process's slot. Wait-free.
	Write(p *sched.Proc, v T)
	// Scan returns a view of all n slots (index = pid). Slot p.ID() is the
	// value the caller last wrote (zero value of T before any write).
	//
	// The returned slice is a per-process buffer owned by the memory: it is
	// valid (and may be mutated by the caller) only until the caller's next
	// Scan on the same memory, which reuses it. Callers retaining a view
	// across scans must copy it first.
	Scan(p *sched.Proc) []T
	// N returns the number of slots.
	N() int
}

// Arrow is the paper's bounded scannable memory (§2.2).
//
// For every ordered pair (i, j), arrows[i][j] is a 2W2R register written by
// scanner i (clearing it to false) and writer j (setting it to true). A scan
// by i clears its arrows, collects all values twice, re-reads its arrows, and
// retries if any arrow was set or any toggle bit changed between the two
// collects. A write by j first sets the arrow in every potential scanner's
// register, then writes its value.
//
// Comparing only the toggle bits between the two collects is sufficient: a
// single intervening write flips the toggle, and two or more intervening
// writes necessarily set the scanner's arrow after it was cleared (the second
// write's arrow-set follows the first write's value-write, which follows the
// scanner's clear).
//
// A classic scan is one step sequence (sched.StepSeq) from its first arrow
// clear to its clean re-read: pass after pass of arrow clears, both collects
// and the arrow re-reads up to the first dirty slot, with a dirty pass's
// retry bookkeeping, which takes no step, run by the op that found it dirty.
// A write is one too: the arrow sets, then the value write. With Bloom
// arrows, whose operations take two steps each, the same ops run in a plain
// loop.
type Arrow[T any] struct {
	n      int
	sink   *obs.Sink
	mon    *audit.Monitor
	prof   *prof.Profiler
	vals   []*register.ToggledSWMR[T]
	arrows [][]register.TwoWriter // arrows[i][j], i != j
	local  []T                    // local[i]: last value written by i (owner-only access)
	direct bool                   // every arrow is one step per operation: ops run as step sequences

	// ops[i] is pid i's scan and write state, including its double-collect
	// and result buffers.
	ops []arrowOps[T]

	retries []pad.Int64 // per-pid scan retry counts (metrics)

	// epoch selects the dirty-bit retry path (see SetEpoch / scanEpoch). The
	// per-pid scratch below is allocated on first enable and owned by each
	// pid's goroutine; the epoch path never runs as step sequences.
	epoch   bool
	epTrip  [][]bool  // epTrip[i][j]: register j tripped in i's last pass
	epArrow [][]bool  // epArrow[i][j]: arrow (i,j) observed set, needs re-clearing
	epHot   [][]int32 // epHot[i][j]: consecutive passes j has tripped
}

// NewArrow builds an Arrow memory for n processes using factory (direct
// atomic 2W2R registers or Bloom's construction) for the arrow registers.
func NewArrow[T any](n int, factory register.TwoWriterFactory) *Arrow[T] {
	a := &Arrow[T]{
		n:       n,
		vals:    make([]*register.ToggledSWMR[T], n),
		arrows:  make([][]register.TwoWriter, n),
		local:   make([]T, n),
		ops:     make([]arrowOps[T], n),
		retries: make([]pad.Int64, n),
		direct:  true,
	}
	var zero T
	for i := 0; i < n; i++ {
		a.vals[i] = register.NewToggledSWMR(i, zero)
		a.arrows[i] = make([]register.TwoWriter, n)
		a.ops[i] = arrowOps[T]{
			a:   a,
			i:   i,
			t1:  make([]bool, n),
			t2:  make([]bool, n),
			out: make([]T, n),
		}
		for j := 0; j < n; j++ {
			if i != j {
				a.arrows[i][j] = factory(i, j, false)
				_, one := a.arrows[i][j].(*register.Direct2W)
				a.direct = a.direct && one
			}
		}
	}
	return a
}

// arrowOps is process i's scan and write state on an Arrow. t1/t2 hold the
// toggle bits of its two collects and out is its result buffer: the first
// collect keeps only toggle bits, and the second copies each value once,
// straight into out. A steady-state scan performs zero allocations (the
// returned view is reused; see Memory.Scan); the other fields are where a
// classic scan's ops keep their place across passes. The state belongs to i:
// it is used by i's body and, during an inline step-sequence op of i, by the
// token holder's coroutine, never concurrently. The two runs are the named
// types below.
type arrowOps[T any] struct {
	a             *Arrow[T]
	i             int
	t1, t2        []bool
	out           []T
	firstMismatch int   // first slot whose toggles differ between the pass's collects, or n
	pass          int   // op index of the current pass's first op
	tries         int64 // dirty passes of the current scan
	passStart     int64 // Steps at the current pass's start (profiled runs only)
}

type (
	scanRun[T any]  arrowOps[T] // passes of clear, collect twice, re-read, until one is clean
	writeRun[T any] arrowOps[T] // set n-1 arrows, then write the value
)

// slot maps the k-th of the n-1 other slots to its pid: k skips over i.
func slot(k, i int) int {
	if k >= i {
		return k + 1
	}
	return k
}

// Op implements sched.Seq. Passes vary in length and k counts on across
// them, so q = k-pass is the op's place in the current pass: [0, m) clear the
// m = n-1 arrows, [m, 2m) are the first collect, which keeps only the toggle
// bits, [2m, 3m) the second collect, which reads each value straight into the
// view, fused with the toggle comparison (register-local, no scheduler step),
// and the rest re-read the arrows. The re-reads stop at the first dirty slot
// (set arrow or toggle mismatch), which is also the blame culprit: the arrow
// (or toggle) was tripped by writer j's register. A dirty slot retries the
// pass; the last clean re-read ends the run.
func (r *scanRun[T]) Op(p *sched.Proc, k int) bool {
	a, i, m := r.a, r.i, r.a.n-1
	switch q := k - r.pass; {
	case q < m:
		a.arrows[i][slot(q, i)].Write(p, false)
	case q < 2*m:
		j := slot(q-m, i)
		r.t1[j] = a.vals[j].ReadTo(p, nil)
	case q < 3*m:
		j := slot(q-2*m, i)
		r.t2[j] = a.vals[j].ReadTo(p, &r.out[j])
		if r.firstMismatch == a.n && r.t1[j] != r.t2[j] {
			r.firstMismatch = j
		}
	default:
		q -= 3 * m
		if q == 0 && MutTornScan.Load() {
			r.firstMismatch = a.n // fault injection: ignore the handshake
		}
		j := slot(q, i)
		set := a.arrows[i][j].Read(p)
		if set || j == r.firstMismatch {
			r.retry(p, j, set)
			r.pass, r.firstMismatch = k+1, a.n
			return true
		}
		return q < m-1
	}
	return true
}

// retry does a dirty pass's bookkeeping, where slot j's re-read found its
// arrow set or else its toggles mismatched. It takes no step and runs right
// after the re-read's grant, before the next consult, so Now and Steps read
// what the process would read there itself.
func (r *scanRun[T]) retry(p *sched.Proc, j int, set bool) {
	a, i := r.a, r.i
	a.retries[i].Add(1)
	r.tries++
	a.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.ScanRetry, Value: r.tries})
	if a.prof.Enabled() {
		reason := prof.BlameToggle
		if set {
			reason = prof.BlameArrow
		}
		a.prof.ScanRetry(i, j, reason, p.Steps()-r.passStart, p.Now())
		r.passStart = p.Steps()
	}
}

// Op implements sched.Seq: ops [0, n-1) set the arrows in every other
// process's scanner register, op n-1 publishes the value in local[i].
func (r *writeRun[T]) Op(p *sched.Proc, k int) bool {
	a, i := r.a, r.i
	if k < a.n-1 {
		a.arrows[slot(k, i)][i].Write(p, true)
		return true
	}
	a.vals[i].Write(p, a.local[i])
	return false
}

// run performs ops 0..n-1 of s for p, stopping after an op that reports
// false: as one step sequence when every op is one register step, else op
// by op.
func (a *Arrow[T]) run(p *sched.Proc, s sched.Seq, n int) {
	if a.direct {
		p.StepSeq(s, n)
		return
	}
	for k := 0; k < n && s.Op(p, k); k++ {
	}
}

// Reset restores the memory to its initial state (zero values, cleared
// toggles and arrows) for instance pooling, reporting whether every arrow
// register supported it. Call only between runs.
func (a *Arrow[T]) Reset() bool {
	var zero T
	for i := 0; i < a.n; i++ {
		a.vals[i].Reset(zero)
		a.local[i] = zero
		a.retries[i].Store(0)
		for j := 0; j < a.n; j++ {
			if i == j {
				continue
			}
			r, ok := a.arrows[i][j].(register.TwoWriterResetter)
			if !ok {
				return false
			}
			r.Reset(false)
		}
	}
	return true
}

// N implements Memory.
func (a *Arrow[T]) N() int { return a.n }

// SetSink installs the observability sink on the memory and every register
// beneath it.
func (a *Arrow[T]) SetSink(s *obs.Sink) {
	a.sink = s
	for i := 0; i < a.n; i++ {
		a.vals[i].SetSink(s)
		for j := 0; j < a.n; j++ {
			if i != j {
				if ss, ok := a.arrows[i][j].(register.SinkSetter); ok {
					ss.SetSink(s)
				}
			}
		}
	}
}

// SetNative switches every underlying register's storage mode for the
// chosen substrate (see register.NativeSetter), propagating exactly like
// SetSink. The per-pid scratch buffers need no change: each is owned by one
// process's goroutine on either substrate.
func (a *Arrow[T]) SetNative(on bool) {
	for i := 0; i < a.n; i++ {
		a.vals[i].SetNative(on)
		for j := 0; j < a.n; j++ {
			if i != j {
				if ns, ok := a.arrows[i][j].(register.NativeSetter); ok {
					ns.SetNative(on)
				}
			}
		}
	}
}

// SetMonitor attaches the invariant monitor to the memory (the scan
// handshake probe) and to every value register beneath it (the sampled
// register-regularity probe). A nil m detaches — ExecuteProto always calls
// it so pooled instances never carry a stale monitor.
func (a *Arrow[T]) SetMonitor(m *audit.Monitor) {
	a.mon = m
	for i := range a.vals {
		a.vals[i].SetMonitor(m, i)
	}
}

// SetProfiler attaches the step profiler (nil detaches — ExecuteProto
// always calls it so pooled instances never carry a stale profiler). The
// profiler is strictly passive; every hook site is guarded by Enabled().
func (a *Arrow[T]) SetProfiler(f *prof.Profiler) { a.prof = f }

// SetSpace installs the space meter down the register stack, attributing the
// n value registers to the register layer and the snapshot machinery — one
// toggle bit per value register plus the n(n-1) arrow registers — to the
// scan layer (nil detaches; see register.SpaceSetter). The payload width of
// the values themselves is declared by the protocol that owns the entries.
func (a *Arrow[T]) SetSpace(m *space.Meter, _ space.Layer) {
	for i := 0; i < a.n; i++ {
		a.vals[i].SetSpace(m, space.LayerRegister)
		for j := 0; j < a.n; j++ {
			if i != j {
				if sp, ok := a.arrows[i][j].(register.SpaceSetter); ok {
					sp.SetSpace(m, space.LayerScan)
				}
			}
		}
	}
	m.AddWords(space.LayerScan, int64(a.n)) // toggle bits
	m.DeclareDomain(space.LayerScan, 2)
}

// SetEpoch selects (or deselects) the dirty-bit epoch retry path for every
// scanner. It changes only the *cost* of retrying scans — views, events and
// probe verdicts keep their semantics — but it does change step counts on
// retry, so it is opt-in: ExecuteProto enables it together with commuting
// dispatch and leaves the default path byte-identical to previous releases.
// Idempotent; call only between runs (pooled instances are re-armed like
// SetNative).
func (a *Arrow[T]) SetEpoch(on bool) {
	a.epoch = on
	if on && a.epTrip == nil {
		a.epTrip = make([][]bool, a.n)
		a.epArrow = make([][]bool, a.n)
		a.epHot = make([][]int32, a.n)
		for i := 0; i < a.n; i++ {
			a.epTrip[i] = make([]bool, a.n)
			a.epArrow[i] = make([]bool, a.n)
			a.epHot[i] = make([]int32, a.n)
		}
	}
}

// Write implements Memory: set the arrow in every other process's scanner
// register, then publish the value. Wait-free; n atomic steps (2n-1 with Bloom
// arrow registers).
func (a *Arrow[T]) Write(p *sched.Proc, v T) {
	i := p.ID()
	a.local[i] = v
	a.run(p, (*writeRun[T])(&a.ops[i]), a.n)
	if a.prof.Enabled() {
		a.prof.NoteWrite(i, p.Now(), p.Steps())
	}
}

// Scan implements Memory: clear arrows, double-collect, re-read arrows, retry
// until a clean pass, all as one run (scanRun). Not wait-free, but lock-free
// in the paper's sense: a retry implies some other process completed a new
// write. With n=1 there is nothing to collect and a scan takes no step.
func (a *Arrow[T]) Scan(p *sched.Proc) []T {
	if a.epoch {
		return a.scanEpoch(p)
	}
	i := p.ID()
	r := &a.ops[i]
	r.firstMismatch, r.pass, r.tries = a.n, 0, 0
	if a.prof.Enabled() {
		r.passStart = p.Steps()
	}
	if a.n > 1 {
		a.run(p, (*scanRun[T])(r), math.MaxInt)
	}
	if a.mon.Enabled() {
		// Independent handshake audit: re-compare the two collects' toggle
		// bits (register-local, no scheduler steps). A returning scan whose
		// collects disagree is a torn double collect.
		firstBad := -1
		for j := 0; j < a.n; j++ {
			if j != i && r.t1[j] != r.t2[j] {
				firstBad = j
				break
			}
		}
		a.mon.ScanHandshake(p.Now(), i, firstBad)
	}
	a.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.ScanClean, Value: r.tries})
	a.sink.Observe(obs.HistScanRetries, r.tries)
	r.out[i] = a.local[i]
	if a.prof.Enabled() {
		a.prof.CleanScan(i, p.Now(), p.Steps())
	}
	return r.out
}

// Epoch-path tuning: hotTrips is how many consecutive passes a register must
// trip before the scanner tight-loops on it, and maxHotSettle caps the extra
// settling reads per hot register per pass (each costs one step, so the cap
// bounds the worst case at maxHotSettle·k extra steps for k hot registers).
const (
	hotTrips     = 2
	maxHotSettle = 8
)

// scanEpoch is the dirty-bit retry path (profile-guided: the n=8 blame
// matrix attributes 57.9% of steps to scan-retry burn concentrated on two
// registers, and the classic retry re-pays 4(n-1) steps to re-check n-3
// registers that never moved). Each failed pass records exactly which
// registers tripped — by toggle mismatch or set arrow — and the retry
// re-establishes a first read only for those: it re-clears their arrows,
// re-reads them (tight-looping on persistently hot registers until their
// toggle settles, the backoff-free path), and then runs one *unified* read
// pass over all n-1 registers followed by a full arrow check.
//
// Soundness (the P1–P3 argument, spelled out in DESIGN.md §16): for every
// register j the pair of reads behind (t1[j], t2[j]) is a valid per-register
// double collect — both reads happen after arrow (i,j) was last cleared, and
// the final arrow check reads it clear, so at most one write of j completed
// between them and the toggle comparison is decisive (P1). All first reads
// precede the unified pass and all second reads are inside it, so the instant
// U just before the unified pass's first read lies in every register's
// constancy window: the view is the memory state at U, a true snapshot (P2),
// and scans linearize at their U instants (P3). The first pass is step-identical to the classic path
// on success; only retry passes cost differently (≈ 2(n-1)+2k instead of
// 4(n-1) for k tripped registers).
func (a *Arrow[T]) scanEpoch(p *sched.Proc) []T {
	i := p.ID()
	t1, t2, out := a.ops[i].t1, a.ops[i].t2, a.ops[i].out
	trip, arr, hot := a.epTrip[i], a.epArrow[i], a.epHot[i]
	for j := 0; j < a.n; j++ {
		// First pass: every register is unconfirmed, every arrow needs a clear.
		trip[j] = j != i
		arr[j] = j != i
		hot[j] = 0
	}
	var tries, passStart int64
	for {
		if a.prof.Enabled() {
			passStart = p.Steps()
		}
		// Re-clear only the arrows observed set (all of them on the first pass).
		for j := 0; j < a.n; j++ {
			if arr[j] {
				a.arrows[i][j].Write(p, false)
			}
		}
		// Re-establish the first read of each tripped register. For registers
		// hot across consecutive passes, keep re-reading until the toggle
		// settles: the writer is mid-burst, and one step per extra read is far
		// cheaper than failing the pass and re-paying the unified sweep.
		for j := 0; j < a.n; j++ {
			if !trip[j] {
				continue // t1[j] keeps the confirmed read from the previous pass
			}
			t1[j] = a.vals[j].ReadTo(p, nil)
			if hot[j] >= hotTrips {
				for s := 0; s < maxHotSettle; s++ {
					nt := a.vals[j].ReadTo(p, nil)
					if nt == t1[j] {
						break
					}
					t1[j] = nt
				}
			}
		}
		// Unified confirm pass: one read of every register. The instant before
		// its first read is the scan's linearization point candidate.
		for j := 0; j < a.n; j++ {
			if j == i {
				continue
			}
			t2[j] = a.vals[j].ReadTo(p, &out[j])
			trip[j] = t1[j] != t2[j] && !MutTornScan.Load()
		}
		// Full arrow check — every slot, no prefix short-circuit: a retry pass
		// must know the complete tripped set, or an unread dirty arrow would be
		// mistaken for a confirmed register next pass.
		firstTrip, firstArrow := -1, false
		for j := 0; j < a.n; j++ {
			if j == i {
				continue
			}
			arr[j] = a.arrows[i][j].Read(p)
			trip[j] = trip[j] || arr[j]
			if trip[j] && firstTrip < 0 {
				firstTrip, firstArrow = j, arr[j]
			}
		}
		if firstTrip < 0 {
			if a.mon.Enabled() {
				// Independent handshake audit, as on the classic path: t1/t2
				// hold each register's two window reads.
				firstBad := -1
				for j := 0; j < a.n; j++ {
					if j != i && t1[j] != t2[j] {
						firstBad = j
						break
					}
				}
				a.mon.ScanHandshake(p.Now(), i, firstBad)
			}
			a.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.ScanClean, Value: tries})
			a.sink.Observe(obs.HistScanRetries, tries)
			out[i] = a.local[i]
			if a.prof.Enabled() {
				a.prof.CleanScan(i, p.Now(), p.Steps())
			}
			return out
		}
		// Failed pass: confirmed registers carry their unified read forward as
		// next pass's first read; tripped ones accumulate heat.
		for j := 0; j < a.n; j++ {
			if j == i {
				continue
			}
			if trip[j] {
				hot[j]++
			} else {
				hot[j] = 0
				t1[j] = t2[j]
			}
		}
		a.retries[i].Add(1)
		tries++
		a.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.ScanRetry, Value: tries})
		if a.prof.Enabled() {
			reason := prof.BlameToggle
			if firstArrow {
				reason = prof.BlameArrow
			}
			a.prof.ScanRetry(i, firstTrip, reason, p.Steps()-passStart, p.Now())
		}
	}
}

// Retries returns the total number of scan retries performed by pid so far.
func (a *Arrow[T]) Retries(pid int) int64 { return a.retries[pid].Load() }

// PeekSlot returns the current value of slot j without a scheduler step or
// process context — for protocol-aware adversaries and metrics only, never
// for algorithm logic (which must pay for a scan).
func (a *Arrow[T]) PeekSlot(j int) T { return a.vals[j].Peek().Val }

// seqCell is a value stamped with an unbounded sequence number.
type seqCell[T any] struct {
	val T
	seq uint64
}

// SeqSnap is the unbounded sequence-number snapshot baseline: every write
// increments a per-process counter with no bound, and a scan double-collects
// until two consecutive collects see identical sequence vectors.
type SeqSnap[T any] struct {
	n     int
	sink  *obs.Sink
	prof  *prof.Profiler
	spc   *space.Meter
	vals  []*register.SWMR[seqCell[T]]
	local []T
	seq   []uint64 // next sequence number per writer (owner-only access)

	// c1/c2/view[i] are pid i's double-collect and result buffers (owner-only
	// access); the returned view is reused across scans (see Memory.Scan).
	c1, c2 [][]seqCell[T]
	view   [][]T

	retries []pad.Int64
}

// NewSeqSnap builds a SeqSnap memory for n processes.
func NewSeqSnap[T any](n int) *SeqSnap[T] {
	s := &SeqSnap[T]{
		n:       n,
		vals:    make([]*register.SWMR[seqCell[T]], n),
		local:   make([]T, n),
		seq:     make([]uint64, n),
		c1:      make([][]seqCell[T], n),
		c2:      make([][]seqCell[T], n),
		view:    make([][]T, n),
		retries: make([]pad.Int64, n),
	}
	for i := 0; i < n; i++ {
		s.vals[i] = register.NewSWMR(i, seqCell[T]{})
		s.c1[i] = make([]seqCell[T], n)
		s.c2[i] = make([]seqCell[T], n)
		s.view[i] = make([]T, n)
	}
	return s
}

// Reset restores the memory to its initial state (zero values, sequence
// numbers rewound) for instance pooling. Call only between runs.
func (s *SeqSnap[T]) Reset() bool {
	var zero T
	for i := 0; i < s.n; i++ {
		s.vals[i].Reset(seqCell[T]{})
		s.local[i] = zero
		s.seq[i] = 0
		s.retries[i].Store(0)
	}
	return true
}

// N implements Memory.
func (s *SeqSnap[T]) N() int { return s.n }

// SetSink installs the observability sink on the memory and its registers.
func (s *SeqSnap[T]) SetSink(sk *obs.Sink) {
	s.sink = sk
	for _, r := range s.vals {
		r.SetSink(sk)
	}
}

// SetProfiler attaches the step profiler (nil detaches; see Arrow).
func (s *SeqSnap[T]) SetProfiler(f *prof.Profiler) { s.prof = f }

// SetSpace installs the space meter: value registers on the register layer,
// the per-register sequence number — the unbounded word this baseline pays
// for its snapshots — on the scan layer, with its growth measured online in
// Write.
func (s *SeqSnap[T]) SetSpace(m *space.Meter, _ space.Layer) {
	s.spc = m
	for _, r := range s.vals {
		r.SetSpace(m, space.LayerRegister)
	}
	m.AddWords(space.LayerScan, int64(s.n)) // sequence numbers
	m.DeclareUnbounded(space.LayerScan)
}

// SetNative switches every value register's storage mode (see Arrow).
func (s *SeqSnap[T]) SetNative(on bool) {
	for _, r := range s.vals {
		r.SetNative(on)
	}
}

// Write implements Memory. One atomic step; the sequence number grows without
// bound (this is the point of the baseline).
func (s *SeqSnap[T]) Write(p *sched.Proc, v T) {
	i := p.ID()
	s.seq[i]++
	s.spc.NoteValue(space.LayerScan, int64(s.seq[i]))
	s.vals[i].Write(p, seqCell[T]{val: v, seq: s.seq[i]})
	s.local[i] = v
	if s.prof.Enabled() {
		s.prof.NoteWrite(i, p.Now(), p.Steps())
	}
}

// Scan implements Memory: double-collect until two consecutive collects agree
// on every sequence number.
func (s *SeqSnap[T]) Scan(p *sched.Proc) []T {
	i := p.ID()
	prev, cur := s.c1[i], s.c2[i]
	for j := 0; j < s.n; j++ {
		if j != i {
			prev[j] = s.vals[j].Read(p)
		}
	}
	out := s.view[i]
	var tries, passStart int64
	for {
		if s.prof.Enabled() {
			passStart = p.Steps()
		}
		// Collect, fused with the sequence comparison and the view copy (both
		// register-local): a clean scan finishes in this single pass. The
		// first sequence mismatch is the blame culprit.
		clean := true
		dirtyAt := -1
		for j := 0; j < s.n; j++ {
			if j == i {
				continue
			}
			cur[j] = s.vals[j].Read(p)
			out[j] = cur[j].val
			if cur[j].seq != prev[j].seq {
				clean = false
				if dirtyAt < 0 {
					dirtyAt = j
				}
			}
		}
		if clean {
			s.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.ScanClean, Value: tries})
			s.sink.Observe(obs.HistScanRetries, tries)
			out[i] = s.local[i]
			if s.prof.Enabled() {
				s.prof.CleanScan(i, p.Now(), p.Steps())
			}
			return out
		}
		s.retries[i].Add(1)
		tries++
		s.sink.Emit(obs.Event{Step: p.Now(), Pid: i, Kind: obs.ScanRetry, Value: tries})
		if s.prof.Enabled() {
			s.prof.ScanRetry(i, dirtyAt, prof.BlameSeq, p.Steps()-passStart, p.Now())
		}
		prev, cur = cur, prev
		s.c1[i], s.c2[i] = prev, cur
	}
}

// Retries returns the total number of scan retries performed by pid so far.
func (s *SeqSnap[T]) Retries(pid int) int64 { return s.retries[pid].Load() }

// PeekSlot returns the current value of slot j without a scheduler step —
// for adversaries and metrics only.
func (s *SeqSnap[T]) PeekSlot(j int) T { return s.vals[j].Peek().val }

// MaxSeq returns the largest sequence number written so far — the
// space-accounting hook showing this implementation is unbounded.
func (s *SeqSnap[T]) MaxSeq() uint64 {
	var m uint64
	for _, r := range s.vals {
		if c := r.Peek(); c.seq > m {
			m = c.seq
		}
	}
	return m
}

// Collect is the single-collect baseline: a "scan" is one read of each slot
// with no consistency check. It is regular (P1) but not a snapshot (P2/P3
// can fail). It exists as a negative control proving the property checker
// can detect violations.
type Collect[T any] struct {
	n     int
	vals  []*register.SWMR[T]
	local []T
	view  [][]T // per-pid reused result buffer (see Memory.Scan)
}

// NewCollect builds a Collect memory for n processes.
func NewCollect[T any](n int) *Collect[T] {
	c := &Collect[T]{
		n:     n,
		vals:  make([]*register.SWMR[T], n),
		local: make([]T, n),
		view:  make([][]T, n),
	}
	for i := 0; i < n; i++ {
		c.vals[i] = register.NewSWMR[T](i, *new(T))
		c.view[i] = make([]T, n)
	}
	return c
}

// Reset restores the memory to its initial state for instance pooling.
func (c *Collect[T]) Reset() bool {
	var zero T
	for i := 0; i < c.n; i++ {
		c.vals[i].Reset(zero)
		c.local[i] = zero
	}
	return true
}

// N implements Memory.
func (c *Collect[T]) N() int { return c.n }

// SetSink installs the observability sink on the underlying registers (the
// single-collect scan has no retries of its own to report).
func (c *Collect[T]) SetSink(s *obs.Sink) {
	for _, r := range c.vals {
		r.SetSink(s)
	}
}

// SetNative switches every value register's storage mode (see Arrow).
func (c *Collect[T]) SetNative(on bool) {
	for _, r := range c.vals {
		r.SetNative(on)
	}
}

// SetSpace installs the space meter on the value registers (the
// single-collect baseline has no snapshot machinery to account).
func (c *Collect[T]) SetSpace(m *space.Meter, _ space.Layer) {
	for _, r := range c.vals {
		r.SetSpace(m, space.LayerRegister)
	}
}

// Write implements Memory. One atomic step.
func (c *Collect[T]) Write(p *sched.Proc, v T) {
	c.vals[p.ID()].Write(p, v)
	c.local[p.ID()] = v
}

// Scan implements Memory: one read per slot, no retry.
func (c *Collect[T]) Scan(p *sched.Proc) []T {
	i := p.ID()
	out := c.view[i]
	for j := 0; j < c.n; j++ {
		if j == i {
			out[j] = c.local[i]
		} else {
			out[j] = c.vals[j].Read(p)
		}
	}
	return out
}

// Kind names a Memory implementation for configuration surfaces.
type Kind int

// Memory implementation kinds.
const (
	KindArrow Kind = iota + 1
	KindSeqSnap
	KindCollect
	KindWaitFree
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindArrow:
		return "arrow"
	case KindSeqSnap:
		return "seqsnap"
	case KindCollect:
		return "collect"
	case KindWaitFree:
		return "waitfree"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// New builds a Memory of the given kind for n processes. The factory is used
// only by KindArrow (pass nil for the others to get direct registers).
func New[T any](kind Kind, n int, factory register.TwoWriterFactory) (Memory[T], error) {
	switch kind {
	case KindArrow:
		if factory == nil {
			factory = register.DirectFactory
		}
		return NewArrow[T](n, factory), nil
	case KindSeqSnap:
		return NewSeqSnap[T](n), nil
	case KindCollect:
		return NewCollect[T](n), nil
	case KindWaitFree:
		return NewWaitFree[T](n), nil
	default:
		return nil, fmt.Errorf("scan: unknown memory kind %d", int(kind))
	}
}
