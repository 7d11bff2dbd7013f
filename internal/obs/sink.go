package obs

// Sink is the per-run observability hub handed to every instrumented layer:
// an optional event recorder plus an always-on metrics registry.
//
// A nil *Sink is a valid, fully disabled sink: every method nil-checks the
// receiver and returns immediately, so instrumented hot paths cost one branch
// and zero allocations when observability is off. A non-nil Sink with a nil
// Recorder is metrics-only: events are counted into the registry but not
// recorded. Emitters building Detail strings (the only allocating part of an
// event) must guard them behind Tracing.
//
// A shared sink counts each event with one atomic add, so any number of
// racing processes and batch workers may use it at once. A step-serialized
// run counts through a run-local view of it instead (Local): plain adds into
// a block of kind counts, published in one Flush when the run ends.
type Sink struct {
	rec Recorder
	reg *Registry
	// local is a run-local view's block of kind counts; nil on a shared sink.
	local *kindCounts
}

// kindCounts is a run-local view's per-kind event counts, not yet flushed
// into the registry.
type kindCounts [numKinds]int64

// NewSink returns a sink recording to rec (nil rec = metrics-only) with a
// fresh registry.
func NewSink(rec Recorder) *Sink {
	return &Sink{rec: rec, reg: NewRegistry()}
}

// WithRecorder returns a sink sharing this sink's registry but recording to
// rec (used to stack an extra trace consumer onto an existing sink).
func (s *Sink) WithRecorder(rec Recorder) *Sink {
	if s == nil {
		return NewSink(rec)
	}
	return &Sink{rec: rec, reg: s.reg}
}

// Recorder returns the installed recorder (nil when metrics-only or s is
// nil).
func (s *Sink) Recorder() Recorder {
	if s == nil {
		return nil
	}
	return s.rec
}

// Registry returns the metrics registry (nil when s is nil).
func (s *Sink) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Enabled reports whether any observability (metrics or tracing) is on.
func (s *Sink) Enabled() bool { return s != nil }

// Tracing reports whether a recorder is installed — emitters must only build
// Detail strings when it returns true.
func (s *Sink) Tracing() bool { return s != nil && s.rec != nil }

// Local returns a run-local view of s for one step-serialized run. The view
// records to s's recorder and updates s's gauges and histograms, but its
// Emit, Count and CountN add into a plain block of kind counts, with no
// atomic, until Flush publishes the block into s's registry. Every call on a
// view must be ordered by happens-before edges, as the step engine's
// coroutine switches order a run's steps, so a view never serves racing
// processes. prev, if it is an earlier view (of any sink) that has been
// flushed and is no longer in use, is reused, block and all; otherwise Local
// allocates one. A nil s has no view.
func (s *Sink) Local(prev *Sink) *Sink {
	if s == nil {
		return nil
	}
	v := prev
	if v == nil || v.local == nil {
		v = &Sink{local: new(kindCounts)}
	}
	v.rec, v.reg = s.rec, s.reg
	return v
}

// Flush publishes a run-local view's kind counts into the shared registry,
// one atomic add per kind counted, and zeroes the block, so a second Flush
// adds nothing. A no-op on a shared sink and on nil.
func (s *Sink) Flush() {
	if s == nil || s.local == nil {
		return
	}
	for k, n := range s.local {
		if n != 0 {
			s.reg.countKindN(Kind(k), n)
			s.local[k] = 0
		}
	}
}

// count adds n to kind k's counter: into the block on a run-local view, into
// the registry otherwise.
func (s *Sink) count(k Kind, n int64) {
	if s.local == nil {
		s.reg.countKindN(k, n)
	} else if k < numKinds {
		s.local[k] += n
	}
}

// Emit counts the event's kind and, if a recorder is installed, records the
// full event. No-op on a nil sink.
func (s *Sink) Emit(e Event) {
	if s == nil {
		return
	}
	s.count(e.Kind, 1)
	if s.rec != nil {
		s.rec.Record(e)
	}
}

// Count increments kind k's counter without recording an event — for
// high-frequency observations (handshake bits, scheduler grants) that would
// drown a trace.
func (s *Sink) Count(k Kind) {
	if s == nil {
		return
	}
	s.count(k, 1)
}

// CountN adds n to kind k's counter in one update — the batched form of Count
// for producers (the step engine) that accumulate counts locally. Counter
// sums commute, so final totals are identical to n individual Counts.
func (s *Sink) CountN(k Kind, n int64) {
	if s == nil || n == 0 {
		return
	}
	s.count(k, n)
}

// Observe records v into histogram id. No-op on a nil sink.
func (s *Sink) Observe(id HistID, v int64) {
	if s == nil {
		return
	}
	if h := s.reg.Hist(id); h != nil {
		h.Observe(v)
	}
}

// GaugeMax raises gauge id to v if larger. No-op on a nil sink.
func (s *Sink) GaugeMax(id GaugeID, v int64) {
	if s == nil {
		return
	}
	s.reg.GaugeMax(id, v)
}
