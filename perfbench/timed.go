package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"github.com/dsrepro/consensus"
)

// setupProbes is how many times a timed run measures set-up; it reports the
// median.
const setupProbes = 9

// warmup is the untimed work before the first timed instance: one batch
// with one instance per worker, on fixed inputs, so every worker's arena
// builds its protocol and the heap, goroutine stacks and code paths of a
// batch are live.
func warmup(w workload) error {
	c := w.nextChunk(rand.New(rand.NewSource(warmupSeed)))
	c.inputs = c.inputs[:min(w.parallel(), len(c.inputs))]
	_, err := consensus.SolveBatch(w.batchConfig(c))
	return err
}

// measureSetup starts the benchmark itself setupProbes times in set-up-only
// mode and returns the median seconds from process start to the end of the
// warm-up, the point where a timed run would start its first instance.
func measureSetup(w workload) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	secs := make([]float64, 0, setupProbes)
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--workload", w.name, "--setup-probe")
		cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// runTotals accumulates what the chunks of one run measured.
type runTotals struct {
	instances int
	steps     int64
	wall      time.Duration // summed batch wall time
	latencies []int64
	fails     tally
	first     []verdict // the first chunk, for the fingerprint
}

// addBatch checks one chunk's results and folds them in.
func (t *runTotals) addBatch(w workload, c chunkInput, res consensus.BatchResult, wall time.Duration) {
	vs := make([]verdict, len(c.inputs))
	for k := range c.inputs {
		vs[k] = verdict{decision: res.Decisions[k], steps: res.Steps[k]}
		if f := w.check(c.inputs[k], vs[k], res.Errors[k]); f >= 0 {
			t.fails[f]++
		}
		t.steps += res.Steps[k]
	}
	if t.first == nil {
		t.first = vs
	}
	t.instances += len(c.inputs)
	t.wall += wall
	t.latencies = append(t.latencies, res.Latencies...)
}

// correct reports whether the run passes: any failure on a simulated
// workload fails it; native failures only count into the failed share.
func (t *runTotals) correct(w workload) bool { return w.native || t.fails.total() == 0 }

// printChecks prints the correctness summary and the fingerprint of the
// run labelled label.
func (t *runTotals) printChecks(w workload, label string) {
	fmt.Printf("%s: checked %d instances: failures %s\n", label, t.instances, t.fails.String())
	if !w.native {
		fmt.Printf("%s: fingerprint %s first %d instances: %s\n", label, w.name, len(t.first), fingerprint(t.first))
	}
}

// timed is the end-to-end run: set-up, then SolveBatch chunks until the time
// is up and the latency tail has enough samples.
func timed(w workload, seed int64, seconds int) (report, error) {
	setup, err := measureSetup(w)
	if err != nil {
		return report{}, err
	}
	if err := warmup(w); err != nil {
		return report{}, err
	}

	rng := rand.New(rand.NewSource(seed))
	var t runTotals
	need := minSamples(90)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for time.Since(start) < time.Duration(seconds)*time.Second || t.instances < need {
		c := w.nextChunk(rng)
		cfg := w.batchConfig(c)
		t0 := time.Now()
		res, err := consensus.SolveBatch(cfg)
		wall := time.Since(t0)
		if err != nil {
			return report{}, err
		}
		t.addBatch(w, c, res, wall)
	}
	runtime.ReadMemStats(&after)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return report{}, fmt.Errorf("reading peak RSS: %w", err)
	}

	t.printChecks(w, "timed")
	lat := sortedCopy(t.latencies)
	fmt.Printf("latency samples %d (%d beyond p90)\n", len(lat), beyond(len(lat), 90))
	failed := t.fails.total()
	var r report
	r.Correct = t.correct(w)
	r.Attempted = t.instances
	r.Failed = failed
	r.add("instances_per_s", float64(t.instances)/t.wall.Seconds(), "1/s")
	r.add("solve_p50_ms", float64(nearestRank(lat, 50))/1e6, "ms")
	r.add("solve_p90_ms", float64(nearestRank(lat, 90))/1e6, "ms")
	r.add("ns_per_step", float64(t.wall.Nanoseconds())/float64(t.steps), "ns")
	r.add("steps_per_instance", float64(t.steps)/float64(t.instances), "steps")
	r.add("clean_share", float64(t.instances-failed)/float64(t.instances), "share")
	r.add("setup_s", setup, "s")
	r.add("alloc_bytes_per_instance", float64(after.TotalAlloc-before.TotalAlloc)/float64(t.instances), "B")
	r.add("max_rss_mb", float64(ru.Maxrss)/1024, "MB")
	return r, nil
}
