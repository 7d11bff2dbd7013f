// Package benchfmt defines the machine-readable report of one batch workload:
// cmd/consensus-load -json writes it and cmd/traceview -tail reads it. It
// lives in internal so the writer and the reader share one schema definition;
// DESIGN.md §9 documents the wire format.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/obs/tail"
)

// Report is one consensus-load invocation's results. Field names are the
// stable JSON schema; new fields are only ever added (older reports decode
// with the new fields zero).
type Report struct {
	Algorithm string `json:"algorithm"`
	N         int    `json:"n"`
	// K and M are the workload's strip constant and coin bound when the run
	// set them explicitly; 0 means the algorithm defaults.
	K int `json:"k,omitempty"`
	M int `json:"m,omitempty"`
	// Substrate names the execution backend the workload ran on ("simulated"
	// or "native"). Empty means simulated.
	Substrate string `json:"substrate,omitempty"`
	// Dispatch names the scheduling engine ("sequential" or "commuting").
	// Empty means sequential. Commuting schedules have a different
	// interleaving distribution, so the dispatch mode is part of the
	// workload's key.
	Dispatch        string           `json:"dispatch,omitempty"`
	Instances       int              `json:"instances"`
	Parallel        int              `json:"parallel"`
	Seed            int64            `json:"seed"`
	ElapsedSec      float64          `json:"elapsed_sec"`
	InstancesPerSec float64          `json:"instances_per_sec"`
	Errors          int              `json:"errors"`
	Steps           StepsSummary     `json:"steps"`
	Counters        map[string]int64 `json:"counters"`
	Gauges          map[string]int64 `json:"gauges"`
	// Hists carries the batch's full histogram snapshots, including the
	// phase.steps.* family.
	Hists map[string]obs.HistSnapshot `json:"hists,omitempty"`
	// Dropped counts ring-recorder events overwritten during the run (0 when
	// no tail was attached or the ring kept up).
	Dropped int64 `json:"dropped_events,omitempty"`
	// Violations counts invariant-monitor probe firings across the batch
	// (0 when auditing was off or the batch was clean; see internal/obs/audit).
	Violations int64 `json:"audit_violations,omitempty"`
	// Matrices carries matrix-valued metrics merged across the batch — today
	// the profiler's blame matrix and contention heatmap (-prof). Absent when
	// profiling was off.
	Matrices map[string]obs.MatrixSnapshot `json:"matrices,omitempty"`
	// Derived holds ratios computed from the raw counters at report time
	// ("scan.retry_ratio" = scan.retry / scan.clean).
	Derived map[string]float64 `json:"derived,omitempty"`
	// Space is the batch-wide space accounting (peak register count, word
	// layout, bits-per-register) when the workload ran with meters attached.
	Space *SpaceStats `json:"space,omitempty"`
	// Latency is the per-instance wall-clock distribution when the workload
	// ran with -latency metering. Unlike steps it is NOT deterministic per
	// seed.
	Latency *tail.Summary `json:"latency,omitempty"`
	// Stragglers digests the top-k slowest instances (seed, latency, steps,
	// decision) when the workload ran with -stragglers. The seeds make each
	// one replayable offline (consensus-load -straggler-replay,
	// consensus.ReplayStraggler).
	Stragglers []tail.Straggler `json:"stragglers,omitempty"`
	// Env stamps the environment the workload ran in. Latency numbers are
	// only comparable between matching environments.
	Env *EnvStamp `json:"env,omitempty"`
}

// EnvStamp records the run environment a report's wall-clock numbers were
// measured in. Step counts are environment-independent; latency and
// throughput are not.
type EnvStamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// CurrentEnv stamps the calling process's environment.
func CurrentEnv() *EnvStamp {
	return &EnvStamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// SpaceStats is the report form of a space.Usage: the totals plus the
// per-layer bit widths the frontier tables render.
type SpaceStats struct {
	// PeakRegs is the batch-wide maximum register count of one instance;
	// LiveRegs counts the registers actually written.
	PeakRegs int64 `json:"peak_regs"`
	LiveRegs int64 `json:"live_regs,omitempty"`
	// PeakWords is the maximum abstract word count across all layers.
	PeakWords int64 `json:"peak_words"`
	// MaxBits is the widest register payload, in bits: the max over layers of
	// max(measured, declared) width, space.UnboundedBits (-1) when some layer
	// declares an unbounded domain AND never stored anything measurable.
	MaxBits int `json:"max_bits"`
	// LayerBits maps layer name -> that layer's payload width in bits.
	LayerBits map[string]int `json:"layer_bits,omitempty"`
}

// SpaceFromUsage converts a meter's usage into the report form.
func SpaceFromUsage(u space.Usage) *SpaceStats {
	s := &SpaceStats{
		PeakRegs:  u.Regs,
		LiveRegs:  u.LiveRegs,
		PeakWords: u.PeakWords,
		MaxBits:   u.MaxBits,
	}
	if len(u.Layers) > 0 {
		s.LayerBits = make(map[string]int, len(u.Layers))
		for name, lu := range u.Layers {
			s.LayerBits[name] = lu.Bits()
		}
	}
	return s
}

// Key names the workload a report measured ("bounded/n=8/M=64/native"): the
// algorithm and process count, then each knob that is not the default.
func (r Report) Key() string {
	k := fmt.Sprintf("%s/n=%d", r.Algorithm, r.N)
	if r.K != 0 {
		k += fmt.Sprintf("/K=%d", r.K)
	}
	if r.M != 0 {
		k += fmt.Sprintf("/M=%d", r.M)
	}
	if s := NormSubstrate(r.Substrate); s != "simulated" {
		k += "/" + s
	}
	if d := NormDispatch(r.Dispatch); d != "sequential" {
		k += "/" + d
	}
	return k
}

// NormSubstrate maps a report's substrate name to its canonical form: the
// empty string is the simulated substrate.
func NormSubstrate(s string) string {
	if s == "" {
		return "simulated"
	}
	return s
}

// NormDispatch maps a report's dispatch name to its canonical form: the
// empty string is sequential dispatch.
func NormDispatch(s string) string {
	if s == "" {
		return "sequential"
	}
	return s
}

// StepsSummary is the per-instance step-total distribution.
type StepsSummary struct {
	Mean float64 `json:"mean"`
	Min  int64   `json:"min"`
	P50  int64   `json:"p50"`
	P90  int64   `json:"p90"`
	P99  int64   `json:"p99"`
	Max  int64   `json:"max"`
}

// Write encodes the report as indented JSON.
func Write(w io.Writer, r Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
