// Package space implements the space-accounting layer: per-instance online
// meters for register count, state words and bits-per-register, attributed to
// the layer of the memory hierarchy that owns each quantity.
//
// The paper's headline claim is *bounded* space with polynomial time; this
// package turns that claim into a continuously measured quantity. A Meter
// tracks, per layer (register / scan / strip / walk / core):
//
//   - Regs: physical registers attached to the instance (atomic cells — a
//     Bloom 2W2R arrow counts as its two single-writer halves).
//   - LiveRegs: registers actually written at least once during the run.
//   - Words: bounded-domain state words held in register payloads (slice
//     elements count individually; an unbounded strip adds words online as
//     it grows, so peak == final and merging is order-independent).
//   - Declared domain: the information-theoretic value domain of the layer's
//     words, from static protocol parameters (coin counters clamp to
//     ±(M+1) → 2M+3 values; strip counters live mod 3K; preferences are
//     {⊥,0,1}). Declaring an unbounded domain (round numbers) records that
//     no static width exists.
//   - Measured payload: the max |value| actually stored, noted at the typed
//     mutation sites (walk clamps, strip row publications, core round/pref
//     writes) — never at the generic register layer, which would need
//     boxing and therefore allocation.
//
// Every meter method is nil-safe and allocation-free: a disabled (nil) meter
// costs one branch per hook site, and an enabled one only atomic ops, so
// metered runs are byte-identical to unmetered ones (observation does not
// perturb).
package space

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Layer attributes a metered quantity to the level of the memory hierarchy
// that owns it.
type Layer int

// Layers, ordered from physical to semantic.
const (
	// LayerRegister is the physical register file: the scannable-memory value
	// cells themselves.
	LayerRegister Layer = iota
	// LayerScan is the snapshot machinery: handshake arrows, toggle bits,
	// sequence numbers — overhead the double-collect protocol adds on top of
	// the value cells.
	LayerScan
	// LayerStrip is the bounded-rounds strip: the mod-3K edge counters (or
	// the unbounded coin strip of the AH baseline).
	LayerStrip
	// LayerWalk is the shared-coin random walk: the clamped ±(M+1) counters.
	LayerWalk
	// LayerCore is protocol core state: preferences, round numbers, cyclic
	// coin pointers, decided flags.
	LayerCore
	// NumLayers bounds the enum.
	NumLayers
)

// String implements fmt.Stringer (the stable wire identifier).
func (l Layer) String() string {
	switch l {
	case LayerRegister:
		return "register"
	case LayerScan:
		return "scan"
	case LayerStrip:
		return "strip"
	case LayerWalk:
		return "walk"
	case LayerCore:
		return "core"
	default:
		return fmt.Sprintf("layer(%d)", int(l))
	}
}

// LayerNames lists the stable layer identifiers in enum order.
func LayerNames() []string {
	out := make([]string, NumLayers)
	for l := Layer(0); l < NumLayers; l++ {
		out[l] = l.String()
	}
	return out
}

// layerMeter is one layer's accounting: all fields atomic so native
// (free-running) substrates meter safely.
type layerMeter struct {
	regs     atomic.Int64
	liveRegs atomic.Int64
	words    atomic.Int64
	domain   atomic.Int64 // declared domain size (max over declarations)
	unbound  atomic.Bool  // an unbounded domain was declared
	maxAbs   atomic.Int64 // measured max |payload value|
	negSeen  atomic.Bool  // a negative payload value was stored
}

// Meter is a per-instance space meter. The zero value is ready to use; a nil
// *Meter is the disabled meter — every method nil-checks and returns, so
// hook sites need no guards of their own.
type Meter struct {
	layers [NumLayers]layerMeter
}

// NewMeter returns an enabled meter.
func NewMeter() *Meter { return &Meter{} }

// Enabled reports whether the meter is collecting. Hook sites with per-item
// loops should guard on it so a disabled meter costs one branch, not a loop.
func (m *Meter) Enabled() bool { return m != nil }

// AddRegs attributes n physical registers to the layer (attach-time for
// static layouts, online for lazily grown ones).
func (m *Meter) AddRegs(l Layer, n int64) {
	if m == nil || l < 0 || l >= NumLayers {
		return
	}
	m.layers[l].regs.Add(n)
}

// RegTouched records one register's first write (register liveness). The
// register layer is responsible for calling it at most once per register per
// run (a CAS-guarded first-write mark).
func (m *Meter) RegTouched(l Layer) {
	if m == nil || l < 0 || l >= NumLayers {
		return
	}
	m.layers[l].liveRegs.Add(1)
}

// AddWords attributes n state words to the layer. Words only ever grow
// (bounded layouts declare them once at attach; unbounded strips add as they
// extend), so the running total is also the peak and merging by max is
// order-independent.
func (m *Meter) AddWords(l Layer, n int64) {
	if m == nil || l < 0 || l >= NumLayers {
		return
	}
	m.layers[l].words.Add(n)
}

// DeclareDomain records the information-theoretic value domain of the
// layer's words: size is the number of distinct representable values (the
// max over all declarations is kept). size <= 0 declares the domain
// unbounded (equivalent to DeclareUnbounded).
func (m *Meter) DeclareDomain(l Layer, size int64) {
	if m == nil || l < 0 || l >= NumLayers {
		return
	}
	if size <= 0 {
		m.layers[l].unbound.Store(true)
		return
	}
	atomicMax(&m.layers[l].domain, size)
}

// DeclareUnbounded records that the layer holds words with no static bound
// (explicit round numbers, growing strips).
func (m *Meter) DeclareUnbounded(l Layer) { m.DeclareDomain(l, 0) }

// NoteValue records a payload value actually stored by the layer: the max
// |v| and a negative-seen flag drive the measured width.
func (m *Meter) NoteValue(l Layer, v int64) {
	if m == nil || l < 0 || l >= NumLayers {
		return
	}
	lm := &m.layers[l]
	if v < 0 {
		if !lm.negSeen.Load() {
			lm.negSeen.Store(true)
		}
		v = -v
	}
	atomicMax(&lm.maxAbs, v)
}

// MaxAbs returns the measured max |payload| of the layer (the E6 hook: the
// bounded protocol's walk layer must never exceed M+1).
func (m *Meter) MaxAbs(l Layer) int64 {
	if m == nil || l < 0 || l >= NumLayers {
		return 0
	}
	return m.layers[l].maxAbs.Load()
}

// atomicMax raises *g to v if v is larger.
func atomicMax(g *atomic.Int64, v int64) {
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}

// UnboundedBits is the DeclaredBits sentinel for layers whose declared
// domain has no static bound.
const UnboundedBits = -1

// DomainBits returns the information-theoretic width of a domain with the
// given number of distinct values: ceil(log2(size)) bits (0 for size <= 1).
func DomainBits(size int64) int {
	if size <= 1 {
		return 0
	}
	return bits.Len64(uint64(size - 1))
}

// MeasuredBits returns the width needed for the measured payload range: the
// magnitude bits of the max |value| plus a sign bit if a negative value was
// stored.
func MeasuredBits(maxAbs int64, negSeen bool) int {
	if maxAbs < 0 {
		maxAbs = -maxAbs
	}
	b := bits.Len64(uint64(maxAbs))
	if negSeen {
		b++
	}
	return b
}

// LayerUsage is one layer's slice of a Usage snapshot.
type LayerUsage struct {
	// Regs / LiveRegs: physical registers attached / actually written.
	Regs     int64 `json:"regs,omitempty"`
	LiveRegs int64 `json:"live_regs,omitempty"`
	// Words is the peak bounded-domain state words (see Meter.AddWords).
	Words int64 `json:"words,omitempty"`
	// DeclaredBits is the information-theoretic width from the declared
	// domain: 0 if no domain was declared, UnboundedBits (-1) if an
	// unbounded domain was declared.
	DeclaredBits int `json:"declared_bits,omitempty"`
	// MeasuredBits is the width of the widest payload actually stored;
	// MaxAbs is its magnitude.
	MeasuredBits int   `json:"measured_bits,omitempty"`
	MaxAbs       int64 `json:"max_abs,omitempty"`
}

// zero reports whether the layer recorded nothing (omitted from snapshots).
func (u LayerUsage) zero() bool {
	return u.Regs == 0 && u.LiveRegs == 0 && u.Words == 0 &&
		u.DeclaredBits == 0 && u.MeasuredBits == 0 && u.MaxAbs == 0
}

// Bits returns the layer's effective width: the larger of declared and
// measured (measured alone when the declared domain is unbounded).
func (u LayerUsage) Bits() int {
	b := u.MeasuredBits
	if u.DeclaredBits > b {
		b = u.DeclaredBits
	}
	return b
}

// Usage is an immutable point-in-time snapshot of a meter, the unit that
// flows through Result.Space, batch aggregation, consensus-load's reports
// and workload goldens, and traceview. Layers with nothing recorded are
// omitted; map keys are the stable layer names, so encoded JSON is
// deterministic (encoding/json sorts map keys).
type Usage struct {
	// Layers holds the per-layer attribution, keyed by Layer.String().
	Layers map[string]LayerUsage `json:"layers,omitempty"`
	// Regs / LiveRegs: total physical registers attached / written.
	Regs     int64 `json:"regs"`
	LiveRegs int64 `json:"live_regs"`
	// PeakWords is the peak total state words over all layers.
	PeakWords int64 `json:"peak_words"`
	// MaxBits is the widest effective per-word width over all layers.
	MaxBits int `json:"max_bits"`
}

// Usage snapshots the meter. A nil meter yields the zero Usage.
func (m *Meter) Usage() Usage {
	var u Usage
	if m == nil {
		return u
	}
	for l := Layer(0); l < NumLayers; l++ {
		lm := &m.layers[l]
		lu := LayerUsage{
			Regs:         lm.regs.Load(),
			LiveRegs:     lm.liveRegs.Load(),
			Words:        lm.words.Load(),
			MaxAbs:       lm.maxAbs.Load(),
			MeasuredBits: MeasuredBits(lm.maxAbs.Load(), lm.negSeen.Load()),
		}
		if lm.unbound.Load() {
			lu.DeclaredBits = UnboundedBits
		} else {
			lu.DeclaredBits = DomainBits(lm.domain.Load())
		}
		if lu.zero() {
			continue
		}
		if u.Layers == nil {
			u.Layers = make(map[string]LayerUsage, NumLayers)
		}
		u.Layers[l.String()] = lu
		u.Regs += lu.Regs
		u.LiveRegs += lu.LiveRegs
		u.PeakWords += lu.Words
		if b := lu.Bits(); b > u.MaxBits {
			u.MaxBits = b
		}
	}
	return u
}

// Empty reports whether the snapshot recorded nothing (the disabled-meter
// snapshot).
func (u Usage) Empty() bool {
	return len(u.Layers) == 0 && u.Regs == 0 && u.LiveRegs == 0 &&
		u.PeakWords == 0 && u.MaxBits == 0
}

// Merge combines two usage snapshots element-wise: counts and widths take
// the max (an instance's usage is itself a max over its run, so batch
// aggregation is "the biggest any instance got"), and an unbounded declared
// width absorbs any bounded one. Merge is commutative and associative, so
// batch results are deterministic at any worker count.
func Merge(a, b Usage) Usage {
	out := Usage{
		Regs:      maxI64(a.Regs, b.Regs),
		LiveRegs:  maxI64(a.LiveRegs, b.LiveRegs),
		PeakWords: maxI64(a.PeakWords, b.PeakWords),
		MaxBits:   maxInt(a.MaxBits, b.MaxBits),
	}
	if len(a.Layers) == 0 && len(b.Layers) == 0 {
		return out
	}
	out.Layers = make(map[string]LayerUsage, maxInt(len(a.Layers), len(b.Layers)))
	for k, v := range a.Layers {
		out.Layers[k] = v
	}
	for k, v := range b.Layers {
		out.Layers[k] = mergeLayer(out.Layers[k], v)
	}
	return out
}

func mergeLayer(a, b LayerUsage) LayerUsage {
	return LayerUsage{
		Regs:         maxI64(a.Regs, b.Regs),
		LiveRegs:     maxI64(a.LiveRegs, b.LiveRegs),
		Words:        maxI64(a.Words, b.Words),
		DeclaredBits: mergeBits(a.DeclaredBits, b.DeclaredBits),
		MeasuredBits: maxInt(a.MeasuredBits, b.MeasuredBits),
		MaxAbs:       maxI64(a.MaxAbs, b.MaxAbs),
	}
}

// mergeBits merges declared widths: the unbounded sentinel absorbs bounded
// widths.
func mergeBits(a, b int) int {
	if a == UnboundedBits || b == UnboundedBits {
		return UnboundedBits
	}
	return maxInt(a, b)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ParseUsage decodes and validates a Usage snapshot from JSON (the traceview
// -space input path). It rejects negative counts, widths below the
// unbounded sentinel and unknown layer names.
func ParseUsage(data []byte) (Usage, error) {
	var u Usage
	if err := json.Unmarshal(data, &u); err != nil {
		return Usage{}, fmt.Errorf("space: parse usage: %w", err)
	}
	if err := u.Validate(); err != nil {
		return Usage{}, err
	}
	return u, nil
}

// Validate checks a snapshot's internal consistency (see ParseUsage).
func (u Usage) Validate() error {
	if u.Regs < 0 || u.LiveRegs < 0 || u.PeakWords < 0 || u.MaxBits < 0 {
		return fmt.Errorf("space: negative total in usage")
	}
	known := make(map[string]bool, NumLayers)
	for l := Layer(0); l < NumLayers; l++ {
		known[l.String()] = true
	}
	for name, lu := range u.Layers {
		if !known[name] {
			return fmt.Errorf("space: unknown layer %q", name)
		}
		if lu.Regs < 0 || lu.LiveRegs < 0 || lu.Words < 0 || lu.MaxAbs < 0 {
			return fmt.Errorf("space: negative count in layer %q", name)
		}
		if lu.DeclaredBits < UnboundedBits || lu.MeasuredBits < 0 {
			return fmt.Errorf("space: invalid width in layer %q", name)
		}
	}
	return nil
}
