package obs

import (
	"testing"
	"time"
)

func TestBatchProgressLifecycle(t *testing.T) {
	var p BatchProgress
	if s := p.Snapshot(); s.Total != 0 || s.ElapsedSec != 0 {
		t.Errorf("zero probe snapshot: %+v", s)
	}
	p.Begin(3)
	if s := p.Snapshot(); s.Total != 3 || s.Completed != 0 {
		t.Errorf("armed snapshot: %+v", s)
	}
	p.InstanceDone()
	p.InstanceDone()
	p.InstanceDone()
	s := p.Snapshot()
	if s.Completed != 3 {
		t.Errorf("end-of-batch snapshot: %+v", s)
	}
	if s.ElapsedSec < 0 {
		t.Errorf("elapsed went negative: %v", s.ElapsedSec)
	}
	// Re-arming resets the counters for the next batch.
	p.Begin(10)
	if s := p.Snapshot(); s.Total != 10 || s.Completed != 0 {
		t.Errorf("re-armed snapshot: %+v", s)
	}
}

func TestBatchProgressNilSafe(t *testing.T) {
	var p *BatchProgress
	p.Begin(5)
	p.InstanceDone()
	if s := p.Snapshot(); s != (ProgressSnapshot{}) {
		t.Errorf("nil probe snapshot: %+v", s)
	}
}

// TestBatchProgressETA drives the probe with explicit clocks: a steady 10
// completions/sec for 4 seconds must yield a windowed rate near 10/s and an
// ETA near remaining/rate.
func TestBatchProgressETA(t *testing.T) {
	var p BatchProgress
	start := int64(1_000_000_000)
	sec := int64(time.Second)
	p.beginAt(100, start)

	// Before anything completes there is no rate: ETA is the -1 sentinel.
	if s := p.snapshotAt(start + sec); s.ETASec != -1 || s.WindowPerSec != 0 {
		t.Errorf("pre-completion snapshot: %+v", s)
	}

	now := start
	for tick := 0; tick < 4; tick++ { // 4 seconds x 10 completions
		for i := 0; i < 10; i++ {
			now += sec / 10
			p.instanceDoneAt(now)
		}
	}
	s := p.snapshotAt(now)
	if s.Completed != 40 {
		t.Fatalf("completed = %d, want 40", s.Completed)
	}
	if s.WindowPerSec < 8 || s.WindowPerSec > 12 {
		t.Errorf("window rate = %v, want ~10/s", s.WindowPerSec)
	}
	// 60 remaining at ~10/s: the estimate must land in the same decade.
	if s.ETASec < 4 || s.ETASec > 9 {
		t.Errorf("eta = %v, want ~6s", s.ETASec)
	}

	// Drain the batch: a finished batch has ETA 0 regardless of rates.
	for i := 0; i < 60; i++ {
		now += sec / 10
		p.instanceDoneAt(now)
	}
	if s := p.snapshotAt(now); s.ETASec != 0 {
		t.Errorf("finished-batch eta = %v, want 0", s.ETASec)
	}
}

// TestBatchProgressWindowTracksRegimeChange: after a fast phase and a stall,
// the windowed rate decays toward the recent (empty) window while the overall
// PerSec still remembers the fast phase — the property that makes the ETA
// honest for mixed batches.
func TestBatchProgressWindowTracksRegimeChange(t *testing.T) {
	var p BatchProgress
	start := int64(5_000_000_000)
	sec := int64(time.Second)
	p.beginAt(1000, start)
	now := start
	for i := 0; i < 100; i++ { // 100 done in the first second
		now += sec / 100
		p.instanceDoneAt(now)
	}
	// 60 seconds of silence: the window slides past every completion.
	s := p.snapshotAt(now + 60*sec)
	if s.WindowPerSec != 0 {
		t.Errorf("stalled window rate = %v, want 0", s.WindowPerSec)
	}
	if s.PerSec <= 0 {
		t.Errorf("overall rate lost: %+v", s)
	}
	// With an empty window the ETA falls back to the overall rate.
	if s.ETASec <= 0 {
		t.Errorf("stalled eta = %v, want fallback > 0", s.ETASec)
	}
}
