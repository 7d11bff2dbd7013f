package obs

import "sync/atomic"

// GaugeID names a max-tracking gauge in the registry.
type GaugeID uint8

// Gauges.
const (
	// GaugeMaxAbsCoin is the largest |coin counter| ever written.
	GaugeMaxAbsCoin GaugeID = iota
	// GaugeMaxRound is the largest explicit round number ever written
	// (unbounded protocols only).
	GaugeMaxRound
	// GaugeMaxStripLen is the largest per-process coin-strip length ever
	// written (unbounded protocols only).
	GaugeMaxStripLen
	// GaugeAuditLastStep is the scheduler step of the most recent audit
	// violation (0 when no probe ever fired; see internal/obs/audit).
	GaugeAuditLastStep
	// GaugeSpacePeakRegs..GaugeSpaceMaxBits are the space-accounting totals
	// (see internal/obs/space): physical registers attached, registers
	// actually written, peak state words, and the widest effective
	// per-word width in bits.
	GaugeSpacePeakRegs
	GaugeSpaceLiveRegs
	GaugeSpacePeakWords
	GaugeSpaceMaxBits
	// GaugeSpaceBitsRegister..GaugeSpaceBitsCore are the per-layer effective
	// width family, in space.Layer enum order (register, scan, strip, walk,
	// core). Contiguity is relied on by the publisher.
	GaugeSpaceBitsRegister
	GaugeSpaceBitsScan
	GaugeSpaceBitsStrip
	GaugeSpaceBitsWalk
	GaugeSpaceBitsCore
	numGauges
)

// String implements fmt.Stringer (the stable metrics-snapshot key).
func (g GaugeID) String() string {
	switch g {
	case GaugeMaxAbsCoin:
		return "core.max_abs_coin"
	case GaugeMaxRound:
		return "core.max_round"
	case GaugeMaxStripLen:
		return "core.max_strip_len"
	case GaugeAuditLastStep:
		return "audit.last_violation_step"
	case GaugeSpacePeakRegs:
		return "space.peak_regs"
	case GaugeSpaceLiveRegs:
		return "space.live_regs"
	case GaugeSpacePeakWords:
		return "space.peak_words"
	case GaugeSpaceMaxBits:
		return "space.max_bits"
	case GaugeSpaceBitsRegister:
		return "space.bits.register"
	case GaugeSpaceBitsScan:
		return "space.bits.scan"
	case GaugeSpaceBitsStrip:
		return "space.bits.strip"
	case GaugeSpaceBitsWalk:
		return "space.bits.walk"
	case GaugeSpaceBitsCore:
		return "space.bits.core"
	default:
		return "gauge.unknown"
	}
}

// HistID names a histogram in the registry.
type HistID uint8

// Histograms.
const (
	// HistScanRetries is the distribution of retries per completed scan.
	HistScanRetries HistID = iota
	// HistStepsToDecide is the distribution of per-process atomic steps from
	// start to decision.
	HistStepsToDecide
	// HistPhasePrefer..HistPhaseDecide are the phase.steps family: the
	// per-process total atomic steps attributed to each protocol phase (one
	// sample per decided process; see PhaseSpan). Together they decompose
	// HistStepsToDecide.
	HistPhasePrefer
	HistPhaseCoin
	HistPhaseStrip
	HistPhaseDecide
	// HistLatSolve is the distribution of per-instance wall-clock solve
	// latencies in nanoseconds (one sample per instance, recorded only when
	// latency metering is on — see core.Instance.Latency). Unlike every other
	// histogram it measures real time, so its contents are NOT deterministic
	// per seed; determinism suites must compare snapshots modulo this key.
	HistLatSolve
	numHists
)

// PhaseStepsPrefix is the snapshot-key prefix of the phase.steps histogram
// family; the suffix is the PhaseID label ("phase.steps.prefer", ...).
const PhaseStepsPrefix = "phase.steps."

// String implements fmt.Stringer (the stable metrics-snapshot key).
func (h HistID) String() string {
	switch h {
	case HistScanRetries:
		return "scan.retries_per_scan"
	case HistStepsToDecide:
		return "core.steps_to_decide"
	case HistPhasePrefer:
		return PhaseStepsPrefix + "prefer"
	case HistPhaseCoin:
		return PhaseStepsPrefix + "coin"
	case HistPhaseStrip:
		return PhaseStepsPrefix + "strip"
	case HistPhaseDecide:
		return PhaseStepsPrefix + "decide"
	case HistLatSolve:
		return "lat.solve"
	default:
		return "hist.unknown"
	}
}

// LatSolveKey is the snapshot key of the per-instance wall-clock latency
// histogram (nanoseconds). Exported so determinism suites and report tooling
// can filter the one non-deterministic histogram by name.
const LatSolveKey = "lat.solve"

// Registry is the unified metrics registry: one counter per event kind, a
// small set of max-gauges, and fixed-bucket histograms. All mutation paths
// are atomic, fixed-index array accesses — no locks, no maps, no allocation.
// It replaces and extends core.Metrics, which remains as a per-protocol
// compatibility view.
type Registry struct {
	kinds  [numKinds]atomic.Int64
	gauges [numGauges]atomic.Int64
	hists  [numHists]*Histogram
}

// phaseStepsBounds are the shared buckets of the phase.steps family: phase
// totals range from zero (a phase the protocol never entered) to the full
// steps-to-decision count, so the ladder starts below the steps one.
var phaseStepsBounds = []int64{
	0, 10, 30, 100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 10_000_000}

// NewRegistry returns a registry with the standard histograms installed.
func NewRegistry() *Registry {
	r := &Registry{}
	r.hists[HistScanRetries] = NewHistogram(0, 1, 2, 4, 8, 16, 32, 64, 128)
	r.hists[HistStepsToDecide] = NewHistogram(
		100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 10_000_000)
	for ph := PhaseID(0); ph < NumPhases; ph++ {
		r.hists[ph.HistID()] = NewHistogram(phaseStepsBounds...)
	}
	r.hists[HistLatSolve] = NewHistogram(latSolveBounds...)
	return r
}

// latSolveBounds are the lat.solve buckets in nanoseconds: a coarse
// exponential ladder from 10µs (a trivial n=4 instance on the native
// substrate) to 100s (an n=32 simulated straggler), ~3 buckets per decade so
// tail quantiles resolve without bloating every snapshot.
var latSolveBounds = []int64{
	10_000, 30_000, 100_000, 300_000, // 10µs .. 300µs
	1_000_000, 3_000_000, 10_000_000, 30_000_000, // 1ms .. 30ms
	100_000_000, 300_000_000, 1_000_000_000, 3_000_000_000, // 100ms .. 3s
	10_000_000_000, 30_000_000_000, 100_000_000_000, // 10s .. 100s
}

// countKindN adds n to the counter of kind k (batched counting).
func (r *Registry) countKindN(k Kind, n int64) {
	if k < numKinds {
		r.kinds[k].Add(n)
	}
}

// KindCount returns the event count of kind k.
func (r *Registry) KindCount(k Kind) int64 {
	if k >= numKinds {
		return 0
	}
	return r.kinds[k].Load()
}

// LayerCount returns the event count summed over every kind of the layer.
func (r *Registry) LayerCount(l Layer) int64 {
	var t int64
	for k := Kind(0); k < numKinds; k++ {
		if k.Layer() == l {
			t += r.kinds[k].Load()
		}
	}
	return t
}

// GaugeMax raises gauge id to v if v is larger.
func (r *Registry) GaugeMax(id GaugeID, v int64) {
	if id >= numGauges {
		return
	}
	g := &r.gauges[id]
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Gauge returns the current value of gauge id.
func (r *Registry) Gauge(id GaugeID) int64 {
	if id >= numGauges {
		return 0
	}
	return r.gauges[id].Load()
}

// Hist returns the histogram with the given id (nil for unknown ids).
func (r *Registry) Hist(id HistID) *Histogram {
	if id >= numHists {
		return nil
	}
	return r.hists[id]
}

// Snapshot is an immutable point-in-time copy of a registry, keyed by the
// stable wire identifiers. Zero-count entries are omitted.
//
// Matrices carries matrix-valued metrics ("prof.blame", "prof.contention").
// The registry itself holds no matrices — they come from sources with
// dynamic shapes, such as the step profiler (internal/obs/prof), and enter
// merged snapshots through MergeSnapshots. The field is nil on registry
// snapshots.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]int64
	Hists    map[string]HistSnapshot
	Matrices map[string]MatrixSnapshot
}

// Snapshot summarizes the registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: make(map[string]int64),
		Gauges:   make(map[string]int64),
		Hists:    make(map[string]HistSnapshot),
	}
	for k := Kind(0); k < numKinds; k++ {
		if c := r.kinds[k].Load(); c != 0 {
			s.Counters[k.ID()] = c
		}
	}
	for g := GaugeID(0); g < numGauges; g++ {
		if v := r.gauges[g].Load(); v != 0 {
			s.Gauges[g.String()] = v
		}
	}
	for h := HistID(0); h < numHists; h++ {
		if hist := r.hists[h]; hist != nil && hist.Count() > 0 {
			s.Hists[h.String()] = hist.Snapshot()
		}
	}
	return s
}

// LayerCounts aggregates the snapshot's counters by layer prefix
// ("scan.retry" counts toward "scan").
func (s Snapshot) LayerCounts() map[string]int64 {
	out := make(map[string]int64)
	for id, c := range s.Counters {
		if k, ok := KindForID(id); ok {
			out[k.Layer().String()] += c
		}
	}
	return out
}
