package obs

// Phase attribution decomposes a process's atomic steps by what the protocol
// was working toward when it took them. The paper's complexity claims are
// per-phase — scan retries under the handshake (§2), random-walk coin flips
// within the bounded range (§3), strip/round transitions (§4) — and Aspnes'
// survey frames exactly this split (agreement work vs. coin work) as the
// quantity separating protocol families, so the taxonomy is protocol-agnostic
// and shared by every protocol in internal/core:
//
//   - prefer: agreement work — scanning, decoding the view, leader checks,
//     adopting or withdrawing a preference.
//   - coin:   randomness work — producing and publishing one coin flip
//     (a bounded-walk counter move, a fresh-strip move, a local flip, or an
//     oracle draw, depending on the protocol).
//   - strip:  round bookkeeping — inc (the strip/round advance) and the write
//     publishing the advanced entry.
//   - decide: publishing the decision (zero steps unless the protocol writes
//     a decided marker, as Bounded does under FastDecide).
//
// Spans are cut at phase boundaries inside each protocol's Run loop; a cut
// emits one phase-layer event carrying the segment's step count, and at
// decision time the per-process totals land in the phase.steps histogram
// family, so the same data is visible in traces (cmd/traceview -phase), in
// metrics snapshots (consensus.Result.Hists, harness tables) and in bench
// reports.

// PhaseID names one phase of the consensus main loop.
type PhaseID uint8

// Phases, in declaration order (also the histogram-family order).
const (
	PhasePrefer PhaseID = iota
	PhaseCoin
	PhaseStrip
	PhaseDecide
	// NumPhases is the number of defined phases.
	NumPhases
)

// String implements fmt.Stringer (the stable phase label).
func (ph PhaseID) String() string {
	switch ph {
	case PhasePrefer:
		return "prefer"
	case PhaseCoin:
		return "coin"
	case PhaseStrip:
		return "strip"
	case PhaseDecide:
		return "decide"
	default:
		return "phase.unknown"
	}
}

// SpanKind returns the event kind recording closed spans of the phase.
func (ph PhaseID) SpanKind() Kind {
	switch ph {
	case PhasePrefer:
		return SpanPrefer
	case PhaseCoin:
		return SpanCoin
	case PhaseStrip:
		return SpanStrip
	case PhaseDecide:
		return SpanDecide
	default:
		return KindUnknown
	}
}

// HistID returns the phase.steps histogram of the phase.
func (ph PhaseID) HistID() HistID {
	switch ph {
	case PhasePrefer:
		return HistPhasePrefer
	case PhaseCoin:
		return HistPhaseCoin
	case PhaseStrip:
		return HistPhaseStrip
	case PhaseDecide:
		return HistPhaseDecide
	default:
		return numHists
	}
}

// PhaseForName parses a phase label ("prefer", "coin", "strip", "decide").
func PhaseForName(s string) (PhaseID, bool) {
	for ph := PhaseID(0); ph < NumPhases; ph++ {
		if ph.String() == s {
			return ph, true
		}
	}
	return 0, false
}

// PhaseForSpanKind inverts PhaseID.SpanKind (trace analysis helpers).
func PhaseForSpanKind(k Kind) (PhaseID, bool) {
	switch k {
	case SpanPrefer:
		return PhasePrefer, true
	case SpanCoin:
		return PhaseCoin, true
	case SpanStrip:
		return PhaseStrip, true
	case SpanDecide:
		return PhaseDecide, true
	default:
		return 0, false
	}
}

// SpanObserver receives phase-span lifecycle callbacks — the step profiler's
// view of the main loop (internal/obs/prof). All callbacks are strictly
// passive: they must take no scheduler steps and consume no randomness, so
// observed runs stay byte-identical to unobserved ones. With no observer
// attached the span pays one nil check per cut.
type SpanObserver interface {
	// PhaseBegin fires when the process's current phase changes to ph.
	PhaseBegin(pid int, ph PhaseID)
	// SpanCut fires for every closed non-empty segment: the process spent
	// segSteps of its own atomic steps in ph, between global scheduler steps
	// gstart and gend.
	SpanCut(pid int, ph PhaseID, gstart, gend, segSteps int64)
	// SpanFinish fires when the process decides, with the global step and the
	// process's total step count.
	SpanFinish(pid int, gend, steps int64)
}

// PhaseSpan attributes one process's atomic steps to protocol phases. It is a
// plain value owned by one process's Run loop (on its stack, or in the
// protocol's per-process storage when a pointer to it leaves the loop):
// starting, cutting and finishing a span allocate nothing, and with a nil
// sink the only residual cost is the bookkeeping of the struct itself —
// observation stays zero-cost when disabled and never perturbs execution (it
// only reads the step counters the scheduler already maintains).
type PhaseSpan struct {
	phase PhaseID
	mark  int64
	gmark int64
	obs   SpanObserver
	acc   [NumPhases]int64
}

// Observe attaches a span observer (nil detaches). Attach only an enabled
// observer: protocols guard the call with prof.Enabled() so the disabled
// path keeps its zero interface dispatch.
func (s *PhaseSpan) Observe(o SpanObserver) { s.obs = o }

// StartPhaseSpan opens a tracker in PhasePrefer with the process's current
// per-process step count as the first span's start mark.
func StartPhaseSpan(steps int64) PhaseSpan {
	return PhaseSpan{phase: PhasePrefer, mark: steps}
}

// To cuts the current span at the process's step count and continues in ph.
// The closed segment's steps are accumulated into the current phase and, when
// non-empty, emitted as one phase-layer event (Step = global step now, Value =
// segment steps). Cutting to the current phase is a no-op.
func (s *PhaseSpan) To(sink *Sink, ph PhaseID, pid int, now, steps int64) {
	if ph == s.phase {
		return
	}
	s.cut(sink, pid, now, steps)
	s.phase = ph
	if s.obs != nil {
		s.obs.PhaseBegin(pid, ph)
	}
}

// cut closes the segment since the last mark into the current phase.
func (s *PhaseSpan) cut(sink *Sink, pid int, now, steps int64) {
	d := steps - s.mark
	gstart := s.gmark
	s.mark = steps
	s.gmark = now
	if d == 0 {
		return
	}
	s.acc[s.phase] += d
	sink.Emit(Event{Step: now, Pid: pid, Kind: s.phase.SpanKind(), Value: d})
	if s.obs != nil {
		s.obs.SpanCut(pid, s.phase, gstart, now, d)
	}
}

// Finish closes the current span and flushes the process's accumulated
// per-phase totals into the phase.steps histogram family. Every phase is
// observed — including zero totals — so each histogram carries exactly one
// sample per decided process and the family sums to steps-to-decision.
func (s *PhaseSpan) Finish(sink *Sink, pid int, now, steps int64) {
	s.cut(sink, pid, now, steps)
	if s.obs != nil {
		s.obs.SpanFinish(pid, now, steps)
	}
	if sink == nil {
		return
	}
	for ph := PhaseID(0); ph < NumPhases; ph++ {
		sink.Observe(ph.HistID(), s.acc[ph])
	}
}

// Steps returns the steps accumulated so far for ph (closed segments only).
func (s *PhaseSpan) Steps(ph PhaseID) int64 {
	if ph >= NumPhases {
		return 0
	}
	return s.acc[ph]
}
