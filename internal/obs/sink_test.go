package obs

import (
	"reflect"
	"testing"
)

func TestNilSinkIsSafe(t *testing.T) {
	var s *Sink
	// Every method must be a no-op on a nil receiver.
	s.Emit(Event{Kind: CoreDecide})
	s.Count(SchedGrant)
	s.CountN(SchedGrant, 3)
	s.Observe(HistScanRetries, 3)
	s.GaugeMax(GaugeMaxAbsCoin, 9)
	s.Flush()
	if s.Local(nil) != nil {
		t.Fatal("a nil sink has a run-local view")
	}
	if s.Enabled() || s.Tracing() {
		t.Fatal("nil sink reports enabled/tracing")
	}
	if s.Registry() != nil || s.Recorder() != nil {
		t.Fatal("nil sink returned a registry or recorder")
	}
}

func TestMetricsOnlySink(t *testing.T) {
	s := NewSink(nil)
	if !s.Enabled() || s.Tracing() {
		t.Fatal("metrics-only sink should be enabled but not tracing")
	}
	s.Emit(Event{Kind: ScanRetry})
	s.Emit(Event{Kind: ScanRetry})
	s.Count(SchedGrant)
	if c := s.Registry().KindCount(ScanRetry); c != 2 {
		t.Fatalf("ScanRetry count = %d, want 2", c)
	}
	if c := s.Registry().KindCount(SchedGrant); c != 1 {
		t.Fatalf("SchedGrant count = %d, want 1", c)
	}
}

func TestSinkRecords(t *testing.T) {
	r := NewRing(8)
	s := NewSink(r)
	if !s.Tracing() {
		t.Fatal("recording sink not tracing")
	}
	s.Emit(Event{Step: 5, Kind: CoreFlip})
	s.Count(SchedGrant) // counted, never recorded
	if r.Len() != 1 {
		t.Fatalf("recorded %d events, want 1 (Count must not record)", r.Len())
	}
	if s.Registry().KindCount(CoreFlip) != 1 || s.Registry().KindCount(SchedGrant) != 1 {
		t.Fatal("Emit and Count must both feed the registry")
	}
}

func TestWithRecorderSharesRegistry(t *testing.T) {
	base := NewSink(nil)
	base.Emit(Event{Kind: CoreStart})
	r := NewRing(8)
	s2 := base.WithRecorder(r)
	s2.Emit(Event{Kind: CoreDecide})
	if base.Registry() != s2.Registry() {
		t.Fatal("WithRecorder must share the registry")
	}
	if base.Registry().KindCount(CoreDecide) != 1 {
		t.Fatal("event emitted on derived sink missing from shared registry")
	}
	if r.Len() != 1 {
		t.Fatal("derived sink did not record")
	}
	var nilSink *Sink
	if got := nilSink.WithRecorder(r); got == nil || got.Registry() == nil {
		t.Fatal("WithRecorder on nil sink must build a fresh sink")
	}
}

// TestEmitZeroAlloc is the tentpole's zero-cost guarantee: emitting with
// observability disabled (nil sink) or in metrics-only mode must not allocate.
func TestEmitZeroAlloc(t *testing.T) {
	var disabled *Sink
	if n := testing.AllocsPerRun(1000, func() {
		disabled.Emit(Event{Step: 1, Pid: 0, Kind: RegSWMRRead, Value: 3})
		disabled.Count(SchedGrant)
		disabled.Observe(HistScanRetries, 2)
		disabled.GaugeMax(GaugeMaxAbsCoin, 5)
	}); n != 0 {
		t.Errorf("nil sink: %v allocs per emit, want 0", n)
	}

	metricsOnly := NewSink(nil)
	if n := testing.AllocsPerRun(1000, func() {
		metricsOnly.Emit(Event{Step: 1, Pid: 0, Kind: RegSWMRRead, Value: 3})
		metricsOnly.Count(SchedGrant)
		metricsOnly.Observe(HistScanRetries, 2)
		metricsOnly.GaugeMax(GaugeMaxAbsCoin, 5)
	}); n != 0 {
		t.Errorf("metrics-only sink: %v allocs per emit, want 0", n)
	}

	view := NewSink(nil).Local(nil)
	if n := testing.AllocsPerRun(1000, func() {
		view.Emit(Event{Step: 1, Pid: 0, Kind: RegSWMRRead, Value: 3})
		view.Count(SchedGrant)
		view.CountN(SchedGrant, 2)
		view.Flush()
	}); n != 0 {
		t.Errorf("run-local view: %v allocs per emit and flush, want 0", n)
	}
}

// TestPhaseSpanZeroAlloc extends the zero-cost guarantee to the phase-span
// tracker: a full start/cut/finish cycle must not allocate, with the sink
// disabled or metrics-only.
func TestPhaseSpanZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		sink *Sink
	}{
		{"nil sink", nil},
		{"metrics-only", NewSink(nil)},
	} {
		steps := int64(0)
		if n := testing.AllocsPerRun(1000, func() {
			span := StartPhaseSpan(steps)
			steps += 7
			span.To(tc.sink, PhaseStrip, 0, steps, steps)
			steps += 3
			span.To(tc.sink, PhaseCoin, 0, steps, steps)
			steps += 5
			span.To(tc.sink, PhaseDecide, 0, steps, steps)
			span.Finish(tc.sink, 0, steps, steps)
		}); n != 0 {
			t.Errorf("%s: %v allocs per span cycle, want 0", tc.name, n)
		}
	}
}

// TestLocalViewFlushMatchesShared pins the run-local view's contract: the
// same Emit, Count and CountN calls, once flushed, leave the same Snapshot as
// on the shared sink, and nothing reaches the registry before the flush. The
// recorder, gauges and histograms are the shared sink's own.
func TestLocalViewFlushMatchesShared(t *testing.T) {
	calls := func(s *Sink) {
		s.Emit(Event{Kind: RegSWMRRead})
		s.Emit(Event{Kind: RegSWMRRead})
		s.Emit(Event{Kind: CoreDecide, Value: 1})
		s.Count(ScanHandshake)
		s.CountN(SchedGrant, 40)
		s.CountN(SchedGrant, 0)
		s.Observe(HistScanRetries, 2)
		s.GaugeMax(GaugeMaxAbsCoin, 5)
	}
	want := NewSink(nil)
	calls(want)

	ring := NewRing(8)
	shared := NewSink(ring)
	view := shared.Local(nil)
	calls(view)
	if view.Registry() != shared.Registry() || view.Recorder() != shared.Recorder() {
		t.Fatal("a view must share its sink's registry and recorder")
	}
	if got := shared.Registry().KindCount(RegSWMRRead); got != 0 {
		t.Fatalf("view counted %d SWMR reads into the registry before Flush", got)
	}
	if ring.Len() != 3 {
		t.Fatalf("view recorded %d events, want 3", ring.Len())
	}
	view.Flush()
	if got, w := shared.Registry().Snapshot(), want.Registry().Snapshot(); !reflect.DeepEqual(got, w) {
		t.Fatalf("flushed view snapshot = %+v, want %+v", got, w)
	}
	view.Flush() // a second flush adds nothing
	if got, w := shared.Registry().Snapshot(), want.Registry().Snapshot(); !reflect.DeepEqual(got, w) {
		t.Fatalf("second Flush changed the snapshot: %+v, want %+v", got, w)
	}

	// A flushed view is reused, block and all, for the next run.
	if again := shared.Local(view); again != view {
		t.Fatal("Local did not reuse the flushed view")
	}
	if other := NewSink(nil).Local(shared); other == shared || other.Registry() == shared.Registry() {
		t.Fatal("Local reused a shared sink as a view")
	}
}
