package obs

import (
	"sync/atomic"
	"time"
)

// progressWindowBuckets x progressBucketNanos is the sliding window behind
// the ETA estimate: completion events are binned into one-second epochs in a
// small ring, so the windowed rate tracks the current regime (e.g. the slow
// n=32 tail of a mixed batch) instead of the whole-batch average.
const (
	progressWindowBuckets = 8
	progressBucketNanos   = int64(time.Second)
)

// progressBucket is one ring slot: the epoch it currently holds and the
// completions counted in that epoch. A slot is lazily reclaimed when a newer
// epoch lands on it; the reclaim (CAS epoch, then reset count) can drop a
// concurrent increment, which is acceptable for a reporting-only probe.
type progressBucket struct {
	epoch atomic.Int64 // 0 = never used; otherwise 1 + (doneNano-startNano)/bucketNanos
	count atomic.Int64
}

// BatchProgress is an atomic probe into a running batch: total and completed
// instance counts plus the wall-clock start, updated by the batch engine's
// workers (core.RunBatch) and read concurrently by a progress reporter
// (consensus-load -progress). Like *Sink, a nil *BatchProgress is a valid
// disabled probe — every method nil-checks the receiver — so the engine pays
// one branch when nobody is watching. The probe is reporting-only: it never
// feeds back into execution, so batch results stay deterministic with or
// without it.
type BatchProgress struct {
	total     atomic.Int64
	completed atomic.Int64
	startNano atomic.Int64
	window    [progressWindowBuckets]progressBucket
}

// Begin (re)arms the probe for a batch of total instances, stamping the
// wall-clock start.
func (p *BatchProgress) Begin(total int) {
	p.beginAt(total, time.Now().UnixNano())
}

func (p *BatchProgress) beginAt(total int, nowNano int64) {
	if p == nil {
		return
	}
	p.total.Store(int64(total))
	p.completed.Store(0)
	for i := range p.window {
		p.window[i].epoch.Store(0)
		p.window[i].count.Store(0)
	}
	p.startNano.Store(nowNano)
}

// InstanceDone marks one instance as completed.
func (p *BatchProgress) InstanceDone() {
	p.instanceDoneAt(time.Now().UnixNano())
}

func (p *BatchProgress) instanceDoneAt(nowNano int64) {
	if p == nil {
		return
	}
	p.completed.Add(1)
	start := p.startNano.Load()
	if start == 0 || nowNano < start {
		return
	}
	epoch := (nowNano-start)/progressBucketNanos + 1
	b := &p.window[epoch%progressWindowBuckets]
	for {
		e := b.epoch.Load()
		if e == epoch {
			b.count.Add(1)
			return
		}
		if e > epoch {
			// A newer epoch already owns the slot (clock skew between
			// workers); drop the sample rather than corrupt the newer bin.
			return
		}
		if b.epoch.CompareAndSwap(e, epoch) {
			b.count.Store(1)
			return
		}
	}
}

// ProgressSnapshot is a point-in-time view of a BatchProgress.
type ProgressSnapshot struct {
	// Total and Completed count instances.
	Total, Completed int64
	// ElapsedSec is the wall-clock time since Begin (0 before Begin).
	ElapsedSec float64
	// PerSec is Completed / ElapsedSec (0 when elapsed is 0).
	PerSec float64
	// WindowPerSec is the completion rate over the recent sliding window
	// (~8s), which tracks the current regime in batches whose instances vary
	// wildly in cost. 0 when nothing completed within the window.
	WindowPerSec float64
	// ETASec estimates the remaining wall-clock seconds: instances remaining
	// divided by WindowPerSec, falling back to the whole-batch PerSec when
	// the window is empty. 0 when done; negative (-1) when no rate exists yet
	// to estimate from.
	ETASec float64
}

// Snapshot reads the probe. Safe to call concurrently with worker updates; a
// nil probe returns the zero snapshot.
func (p *BatchProgress) Snapshot() ProgressSnapshot {
	return p.snapshotAt(time.Now().UnixNano())
}

func (p *BatchProgress) snapshotAt(nowNano int64) ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	s := ProgressSnapshot{
		Total:     p.total.Load(),
		Completed: p.completed.Load(),
	}
	start := p.startNano.Load()
	if start != 0 && nowNano > start {
		s.ElapsedSec = float64(nowNano-start) / float64(time.Second)
	}
	if s.ElapsedSec > 0 {
		s.PerSec = float64(s.Completed) / s.ElapsedSec
	}
	if start != 0 && nowNano >= start {
		curEpoch := (nowNano-start)/progressBucketNanos + 1
		var recent int64
		for i := range p.window {
			e := p.window[i].epoch.Load()
			if e > 0 && e <= curEpoch && curEpoch-e < progressWindowBuckets {
				recent += p.window[i].count.Load()
			}
		}
		winSec := s.ElapsedSec
		if max := float64(progressWindowBuckets) * float64(progressBucketNanos) / float64(time.Second); winSec > max {
			winSec = max
		}
		if winSec > 0 && recent > 0 {
			s.WindowPerSec = float64(recent) / winSec
		}
	}
	remaining := s.Total - s.Completed
	switch {
	case remaining <= 0:
		s.ETASec = 0
	case s.WindowPerSec > 0:
		s.ETASec = float64(remaining) / s.WindowPerSec
	case s.PerSec > 0:
		s.ETASec = float64(remaining) / s.PerSec
	default:
		s.ETASec = -1
	}
	return s
}
