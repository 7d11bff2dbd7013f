package obs

import (
	"fmt"
	"io"
	"sync"
)

// Recorder receives the event stream. Under the step scheduler invocations
// are serialized; in free-running mode a Recorder must synchronize itself
// (the recorders in this package all do).
type Recorder interface {
	Record(Event)
}

// FuncRecorder adapts a function to the Recorder interface.
type FuncRecorder func(Event)

// Record implements Recorder.
func (f FuncRecorder) Record(e Event) { f(e) }

// Ring is a bounded ring-buffer recorder: it keeps the most recent Cap
// events and counts how many older ones were overwritten. It is safe for
// concurrent use.
type Ring struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	full    bool
	dropped int64
	drops   *Sink // optional: overwrites counted as TraceDropped (CountDropsInto)
}

// NewRing returns a ring buffer holding up to capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// CountDropsInto makes every future ring overwrite also count a TraceDropped
// event into s's registry, so trace loss shows up in the registry's
// snapshots (and the reports built from them) as well as in the ring's own
// Dropped() total. Call before recording starts; a nil s disables the
// counting again.
func (r *Ring) CountDropsInto(s *Sink) {
	r.mu.Lock()
	r.drops = s
	r.mu.Unlock()
}

// Record implements Recorder.
func (r *Ring) Record(e Event) {
	r.mu.Lock()
	if r.full {
		r.dropped++
		r.drops.Count(TraceDropped)
	}
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Dropped returns how many events were overwritten after the buffer filled.
func (r *Ring) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Tee fans one event stream out to several recorders (nils are skipped).
func Tee(recs ...Recorder) Recorder {
	kept := make([]Recorder, 0, len(recs))
	for _, r := range recs {
		if r != nil {
			kept = append(kept, r)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return teeRecorder(kept)
}

type teeRecorder []Recorder

// Record implements Recorder.
func (t teeRecorder) Record(e Event) {
	for _, r := range t {
		r.Record(e)
	}
}

// FilterLayers passes through only events whose kind belongs to one of the
// given layers.
func FilterLayers(inner Recorder, layers ...Layer) Recorder {
	var mask uint64
	for _, l := range layers {
		mask |= 1 << l
	}
	return FuncRecorder(func(e Event) {
		if mask&(1<<e.Kind.Layer()) != 0 {
			inner.Record(e)
		}
	})
}

// TextRecorder writes one human-readable line per event (Event.String) to w.
// It is the formatting path shared by every human-facing trace surface
// (consensus-sim -trace, cointool); the JSONL path shares the same events
// through JSONLRecorder.
type TextRecorder struct {
	mu sync.Mutex
	w  io.Writer
}

// NewTextRecorder returns a text recorder writing to w.
func NewTextRecorder(w io.Writer) *TextRecorder { return &TextRecorder{w: w} }

// Record implements Recorder.
func (t *TextRecorder) Record(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprintln(t.w, e)
}
