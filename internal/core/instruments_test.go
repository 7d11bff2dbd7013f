package core

import (
	"testing"

	"github.com/dsrepro/consensus/internal/obs"
)

// TestEmitDetail: a core event's Detail is built only on a sink that records
// it. A nil sink takes the event as a no-op and a metrics-only sink counts
// it, both without allocating; a recording sink gets the event with the
// parts joined.
func TestEmitDetail(t *testing.T) {
	ev := obs.Event{Step: 3, Pid: 1, Kind: obs.CorePref, Round: 2}

	var off *obs.Sink
	if a := testing.AllocsPerRun(100, func() { emitDetail(off, ev, prefString(0), "->", prefString(1)) }); a != 0 {
		t.Errorf("nil sink: %.1f allocations per emit, want 0", a)
	}

	metrics := obs.NewSink(nil)
	if a := testing.AllocsPerRun(100, func() { emitDetail(metrics, ev, prefString(1), "->", prefString(Bottom)) }); a != 0 {
		t.Errorf("metrics-only sink: %.1f allocations per emit, want 0", a)
	}
	if got := metrics.Registry().KindCount(obs.CorePref); got != 101 { // AllocsPerRun's warm-up call plus 100
		t.Errorf("metrics-only sink counted %d core.pref_change events, want 101", got)
	}

	var recorded []obs.Event
	rec := obs.NewSink(obs.FuncRecorder(func(e obs.Event) { recorded = append(recorded, e) }))
	emitDetail(rec, ev, prefString(1), "->", prefString(Bottom))
	emitDetail(rec, ev, "pref=", prefString(0))
	emitDetail(rec, ev, prefString(1), " (fast)")
	want := []string{"1->⊥", "pref=0", "1 (fast)"}
	if len(recorded) != len(want) {
		t.Fatalf("recording sink got %d events, want %d", len(recorded), len(want))
	}
	for k, e := range recorded {
		d := ev
		d.Detail = want[k]
		if e != d {
			t.Errorf("event %d = %+v, want %+v", k, e, d)
		}
	}
	if got := rec.Registry().KindCount(obs.CorePref); got != 3 {
		t.Errorf("recording sink counted %d core.pref_change events, want 3", got)
	}
}
