// Package obs is the unified cross-layer observability bus: every protocol
// layer (register, scan, walk, strip, sched, core) reports onto one event
// stream and one metrics registry through a *Sink.
//
// The design point is a zero-cost disabled path: a nil *Sink is a valid sink
// whose methods are nil-checked no-ops, so instrumented hot paths (register
// reads, walk steps) pay one predictable branch and zero allocations when
// observability is off. When only metrics are wanted, a Sink with a nil
// Recorder counts every event into the registry without recording it;
// emitters must guard Detail-string construction behind Sink.Tracing so the
// metrics-only mode stays allocation-free too.
//
// The package is a leaf: it imports only the standard library, so every
// other package in the repository (including sched) can depend on it.
package obs

import (
	"fmt"
	"strconv"
)

// Layer identifies the protocol layer an event originated from.
type Layer uint8

// Layers, bottom-up through the protocol stack.
const (
	LayerUnknown Layer = iota
	LayerRegister
	LayerScan
	LayerWalk
	LayerStrip
	LayerSched
	LayerCore
	LayerPhase
	// LayerAudit carries the invariant monitor's events (violations, flight
	// dumps); see internal/obs/audit.
	LayerAudit
	// LayerObs carries the bus's own bookkeeping (trace-loss accounting).
	LayerObs
	numLayers
)

// String implements fmt.Stringer.
func (l Layer) String() string {
	switch l {
	case LayerRegister:
		return "register"
	case LayerScan:
		return "scan"
	case LayerWalk:
		return "walk"
	case LayerStrip:
		return "strip"
	case LayerSched:
		return "sched"
	case LayerCore:
		return "core"
	case LayerPhase:
		return "phase"
	case LayerAudit:
		return "audit"
	case LayerObs:
		return "obs"
	default:
		return fmt.Sprintf("Layer(%d)", int(l))
	}
}

// Kind classifies an event. Kinds are namespaced per layer; Kind.Layer maps
// each kind back to its layer.
type Kind uint8

// Event kinds, grouped by layer.
const (
	KindUnknown Kind = iota

	// register layer: one event per register operation, per register class.
	RegSWMRRead
	RegSWMRWrite
	Reg2WRead
	Reg2WWrite
	RegBloomRead
	RegBloomWrite
	RegMRMWRead  // anonymous-setting multi-writer register; Value = reader pid
	RegMRMWWrite // Value = writer pid

	// scan layer.
	ScanClean  // a scan returned; Value = retries this scan took
	ScanRetry  // one retried collect iteration
	ScanBorrow // a wait-free scan completed by borrowing an embedded view
	ScanHandshake

	// walk layer.
	WalkStep     // one random-walk counter move; Value = new counter
	WalkOverflow // a counter saturated at ±(M+1)
	WalkDecided  // a process observed a decided coin; Value = Outcome

	// strip layer.
	StripMove  // one inc_graph application; Value = edge counters advanced
	StripClamp // edges already saturated at weight K during an inc; Value = count

	// sched layer.
	SchedGrant // the adversary granted one atomic step

	// core layer (protocol events, emitted by each core protocol).
	CoreStart
	CoreRound
	CorePref
	CoreFlip
	CoreCoin
	CoreDecide

	// phase layer: one event per closed phase span; Value = atomic steps the
	// process spent in the phase segment (zero-length spans are not emitted).
	SpanPrefer
	SpanCoin
	SpanStrip
	SpanDecide

	// audit layer: the invariant monitor's surface. AuditViolation is one
	// probe firing (Detail names the probe); FlightDump is one flight-recorder
	// dump being produced (Detail carries the file path or probe name).
	AuditViolation
	FlightDump

	// obs layer: TraceDropped counts ring-recorder events lost to overwrite
	// (see Ring.CountDropsInto) so trace loss shows up in the registry.
	TraceDropped

	numKinds
)

// kindInfo is the static per-kind table: wire identifier (JSONL), short
// human label (text traces), and owning layer.
var kindInfo = [numKinds]struct {
	id    string
	human string
	layer Layer
}{
	KindUnknown:   {"unknown", "unknown", LayerUnknown},
	RegSWMRRead:   {"register.swmr.read", "swmr-r", LayerRegister},
	RegSWMRWrite:  {"register.swmr.write", "swmr-w", LayerRegister},
	Reg2WRead:     {"register.2w2r.read", "2w2r-r", LayerRegister},
	Reg2WWrite:    {"register.2w2r.write", "2w2r-w", LayerRegister},
	RegBloomRead:  {"register.bloom.read", "bloom-r", LayerRegister},
	RegBloomWrite: {"register.bloom.write", "bloom-w", LayerRegister},
	RegMRMWRead:   {"register.mrmw.read", "mrmw-r", LayerRegister},
	RegMRMWWrite:  {"register.mrmw.write", "mrmw-w", LayerRegister},
	ScanClean:     {"scan.clean", "scan", LayerScan},
	ScanRetry:     {"scan.retry", "retry", LayerScan},
	ScanBorrow:    {"scan.borrow", "borrow", LayerScan},
	ScanHandshake: {"scan.handshake", "hshake", LayerScan},
	WalkStep:      {"walk.step", "wstep", LayerWalk},
	WalkOverflow:  {"walk.overflow", "ovflow", LayerWalk},
	WalkDecided:   {"walk.decided", "wdec", LayerWalk},
	StripMove:     {"strip.move", "move", LayerStrip},
	StripClamp:    {"strip.clamp", "clamp", LayerStrip},
	SchedGrant:    {"sched.grant", "grant", LayerSched},
	CoreStart:     {"core.start", "start", LayerCore},
	CoreRound:     {"core.round_advance", "round+", LayerCore},
	CorePref:      {"core.pref_change", "pref", LayerCore},
	CoreFlip:      {"core.coin_flip", "flip", LayerCore},
	CoreCoin:      {"core.coin_decided", "coin", LayerCore},
	CoreDecide:    {"core.decide", "decide", LayerCore},
	SpanPrefer:    {"phase.prefer", "s-pref", LayerPhase},
	SpanCoin:      {"phase.coin", "s-coin", LayerPhase},
	SpanStrip:     {"phase.strip", "s-strip", LayerPhase},
	SpanDecide:    {"phase.decide", "s-dec", LayerPhase},

	AuditViolation: {"audit.violation", "viol", LayerAudit},
	FlightDump:     {"audit.flight_dump", "fdump", LayerAudit},
	TraceDropped:   {"obs.trace_dropped", "tdrop", LayerObs},
}

// kindByID inverts kindInfo for the JSONL decoder.
var kindByID = func() map[string]Kind {
	m := make(map[string]Kind, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		m[kindInfo[k].id] = k
	}
	return m
}()

// Layer returns the layer the kind belongs to.
func (k Kind) Layer() Layer {
	if k >= numKinds {
		return LayerUnknown
	}
	return kindInfo[k].layer
}

// ID returns the stable wire identifier ("scan.retry") used in JSONL traces
// and metrics snapshots.
func (k Kind) ID() string {
	if k >= numKinds {
		return "Kind(" + strconv.Itoa(int(k)) + ")"
	}
	return kindInfo[k].id
}

// String returns the short human label used in text traces ("retry").
func (k Kind) String() string {
	if k >= numKinds {
		return "Kind(" + strconv.Itoa(int(k)) + ")"
	}
	return kindInfo[k].human
}

// KindForID returns the kind with the given wire identifier.
func KindForID(id string) (Kind, bool) {
	k, ok := kindByID[id]
	return k, ok
}

// Kinds returns every defined kind in declaration order (registry and
// rendering helpers iterate it).
func Kinds() []Kind {
	out := make([]Kind, 0, numKinds-1)
	for k := KindUnknown + 1; k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}

// Event is one cross-layer observation. The struct is a plain value: emitting
// one allocates nothing.
type Event struct {
	// Step is the global scheduler step at emission.
	Step int64
	// Pid is the process the event belongs to.
	Pid int
	// Kind classifies the event (and determines its layer).
	Kind Kind
	// Round is the process's protocol round at emission, when meaningful.
	Round int64
	// Value is a kind-specific numeric payload (counter value, retry count,
	// moved-edge count, ...). Zero when the kind carries none.
	Value int64
	// Detail is an optional human-readable annotation. Emitters must only
	// build it when Sink.Tracing reports a recorder is installed.
	Detail string
}

// String renders the event for text traces:
//
//	step    1234  p0  r3   core     round+ [detail]
func (e Event) String() string {
	s := fmt.Sprintf("step %7d  p%-2d r%-3d %-8s %-7s",
		e.Step, e.Pid, e.Round, e.Kind.Layer(), e.Kind)
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}
