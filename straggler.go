package consensus

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/prof"
	"github.com/dsrepro/consensus/internal/obs/tail"
)

// This file is the straggler forensics workflow: a batch names its slowest
// instances (BatchConfig.Stragglers), and ReplayStraggler re-executes one of
// them with every instrumentation layer enabled — full JSONL trace, causal
// step profiler, escalated audit probes — writing a per-straggler bundle.
// The economics are tail-based sampling inverted: the batch pays nothing up
// front (latency capture is two clock reads per instance), and the expensive
// instrumentation is spent only on the instances that proved slow, which the
// deterministic substrate can replay exactly.

// StragglerBundle lists the artifacts ReplayStraggler wrote for one
// straggler, plus what the replay measured. The summary file's JSON schema is
// stragglerSummary (stable field names; parse with ParseStragglerSummary).
type StragglerBundle struct {
	// Straggler is the digest entry the bundle explains.
	Straggler tail.Straggler
	// Dir is the bundle directory; TracePath, ProfilePath, PerfettoPath and
	// SummaryPath are the artifacts inside it.
	Dir          string
	TracePath    string
	ProfilePath  string
	PerfettoPath string
	SummaryPath  string
	// ReplaySteps and ReplayDecision are what the replay computed; both must
	// equal the straggler's recorded values (ReplayStraggler errors
	// otherwise). ReplayLatencyNS is the replay's wall-clock latency — it
	// will differ from the original measurement, and instrumented replays
	// are expected to run slower.
	ReplaySteps     int64
	ReplayDecision  int
	ReplayLatencyNS int64
	// Violations counts audit-probe firings during the replay (every sampled
	// probe escalated); nil for a clean replay.
	Violations map[string]int64
}

// stragglerSummary is the wire schema of a bundle's summary.json: the
// straggler identity, the replay verdict, and the profiler's blame digest.
type stragglerSummary struct {
	Straggler tail.Straggler `json:"straggler"`
	Algorithm string         `json:"algorithm"`
	N         int            `json:"n"`
	Schedule  string         `json:"schedule"`
	Dispatch  string         `json:"dispatch,omitempty"`

	ReplaySteps     int64 `json:"replay_steps"`
	ReplayDecision  int   `json:"replay_decision"`
	ReplayLatencyNS int64 `json:"replay_latency_ns"`
	// Match reports that the replay reproduced the recorded decision and
	// step count — the deterministic fingerprint. Always true in bundles
	// ReplayStraggler finished writing (a mismatch is an error), kept in the
	// schema so external consumers need not infer it.
	Match bool `json:"match"`

	// StepsProductive..StepsStripWait are the profiler's step classes: where
	// the straggler's steps actually went.
	StepsProductive int64 `json:"steps_productive"`
	StepsScanRetry  int64 `json:"steps_scan_retry"`
	StepsCoinSpin   int64 `json:"steps_coin_spin"`
	StepsStripWait  int64 `json:"steps_strip_wait"`
	// BlameScanner/BlameWriter/BlameRetries name the worst scanner<-writer
	// pair (scans by BlameScanner that failed because of BlameWriter's
	// register); HotRegister/HotRegisterHits the most contended register.
	// All -1/0 when no scan ever retried.
	BlameScanner     int              `json:"blame_scanner"`
	BlameWriter      int              `json:"blame_writer"`
	BlameRetries     int64            `json:"blame_retries"`
	HotRegister      int              `json:"hot_register"`
	HotRegisterHits  int64            `json:"hot_register_hits"`
	CriticalPathLen  int64            `json:"critical_path_len"`
	CriticalDecider  int              `json:"critical_decider"`
	AuditViolations  int64            `json:"audit_violations"`
	ViolationsByName map[string]int64 `json:"violations_by_name,omitempty"`
}

// ParseStragglerSummary decodes and sanity-checks a bundle's summary.json.
// Numeric values in the returned map are json.Number, not float64 — seeds
// are full-range int64s and would lose precision past 2^53 as floats.
func ParseStragglerSummary(data []byte) (map[string]any, error) {
	var s stragglerSummary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("consensus: parsing straggler summary: %w", err)
	}
	if s.Algorithm == "" || s.N <= 0 {
		return nil, fmt.Errorf("consensus: straggler summary missing algorithm/n")
	}
	if !s.Match {
		return nil, fmt.Errorf("consensus: straggler summary records a replay mismatch (steps %d vs %d, decision %d vs %d)",
			s.ReplaySteps, s.Straggler.Steps, s.ReplayDecision, s.Straggler.Decision)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var out map[string]any
	if err := dec.Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReplayStraggler deterministically re-executes one straggler of a batch with
// full instrumentation and writes its forensic bundle under dir (created if
// missing): trace.jsonl (the cross-layer event stream), profile.json (the
// causal step profile), perfetto.json (the profile as a Perfetto trace), and
// summary.json (identity, replay verdict, blame digest).
//
// base is the batch's Base config (the straggler's config modulo seed); the
// straggler's recorded seed replaces base.Seed. The replay must reproduce the
// recorded decision and step count exactly — a mismatch is an error, since it
// means the instance was not deterministic (or base does not describe the
// batch that produced the digest, e.g. the batch used PerInstance).
//
// The native substrate is refused: hardware interleavings are not replayable,
// so there is no deterministic instance to instrument (see DESIGN.md §17 —
// native stragglers are print-only).
func ReplayStraggler(base Config, s tail.Straggler, dir string) (StragglerBundle, error) {
	if base.Substrate == NativeSubstrate {
		return StragglerBundle{}, errors.New("consensus: straggler replay requires the simulated substrate (native interleavings are hardware-chosen and not replayable; the digest entry is print-only)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return StragglerBundle{}, fmt.Errorf("consensus: creating straggler bundle dir: %w", err)
	}

	b := StragglerBundle{
		Straggler:    s,
		Dir:          dir,
		TracePath:    filepath.Join(dir, "trace.jsonl"),
		ProfilePath:  filepath.Join(dir, "profile.json"),
		PerfettoPath: filepath.Join(dir, "perfetto.json"),
		SummaryPath:  filepath.Join(dir, "summary.json"),
	}

	traceFile, err := os.Create(b.TracePath)
	if err != nil {
		return StragglerBundle{}, err
	}

	cfg := base
	cfg.Seed = s.Seed
	cfg.TraceJSONL = traceFile
	cfg.Profile = true
	cfg.Audit = true
	cfg.AuditSampleEvery = 1
	cfg.Latency = true
	cfg.Sink = nil
	cfg.TraceWriter = nil
	cfg.Recorder = nil

	res, runErr := Solve(cfg)
	if cerr := traceFile.Close(); cerr != nil && runErr == nil {
		runErr = cerr
	}
	// Budget/stall errors are legitimate replay outcomes when the original
	// instance hit them too (the straggler records Err); anything else, or an
	// error the original run did not have, fails the replay below via the
	// fingerprint check. Hard setup errors abort immediately.
	if runErr != nil && s.Err == "" {
		return StragglerBundle{}, fmt.Errorf("consensus: straggler replay (instance %d, seed %d) failed: %w", s.Index, s.Seed, runErr)
	}

	b.ReplaySteps = res.Steps
	b.ReplayDecision = res.Value
	b.ReplayLatencyNS = res.LatencyNS
	b.Violations = res.Violations

	if res.Steps != s.Steps || res.Value != s.Decision {
		return StragglerBundle{}, fmt.Errorf(
			"consensus: straggler replay diverged (instance %d, seed %d): steps %d vs recorded %d, decision %d vs recorded %d — base config does not describe the original batch",
			s.Index, s.Seed, res.Steps, s.Steps, res.Value, s.Decision)
	}

	if res.Profile == nil {
		return StragglerBundle{}, errors.New("consensus: straggler replay produced no profile")
	}
	profData, err := json.MarshalIndent(res.Profile, "", "  ")
	if err != nil {
		return StragglerBundle{}, err
	}
	if err := os.WriteFile(b.ProfilePath, append(profData, '\n'), 0o644); err != nil {
		return StragglerBundle{}, err
	}
	pf, err := os.Create(b.PerfettoPath)
	if err != nil {
		return StragglerBundle{}, err
	}
	err = prof.WritePerfetto(pf, res.Profile)
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return StragglerBundle{}, err
	}

	sum := summarizeReplay(base, s, res)
	sumData, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return StragglerBundle{}, err
	}
	if err := os.WriteFile(b.SummaryPath, append(sumData, '\n'), 0o644); err != nil {
		return StragglerBundle{}, err
	}
	return b, nil
}

// summarizeReplay folds the replay's profile and audit results into the
// summary-file schema.
func summarizeReplay(base Config, s tail.Straggler, res Result) stragglerSummary {
	sum := stragglerSummary{
		Straggler:       s,
		Algorithm:       base.algorithm().String(),
		N:               len(base.Inputs),
		Schedule:        scheduleString(base.Schedule),
		ReplaySteps:     res.Steps,
		ReplayDecision:  res.Value,
		ReplayLatencyNS: res.LatencyNS,
		Match:           true,
		BlameScanner:    -1,
		BlameWriter:     -1,
		HotRegister:     -1,
	}
	if base.ParallelDispatch {
		sum.Dispatch = "commuting"
	}
	if p := res.Profile; p != nil {
		sum.StepsProductive = p.Classes.Productive
		sum.StepsScanRetry = p.Classes.ScanRetry
		sum.StepsCoinSpin = p.Classes.CoinSpin
		sum.StepsStripWait = p.Classes.StripWait
		if r, c, v := maxCell(p.Blame); v > 0 {
			sum.BlameScanner, sum.BlameWriter, sum.BlameRetries = r, c, v
		}
		if _, c, v := maxCell(p.Contention); v > 0 {
			sum.HotRegister, sum.HotRegisterHits = c, v
		}
		if cp := p.CriticalPath; cp.Decider >= 0 {
			sum.CriticalPathLen = cp.Len
			sum.CriticalDecider = cp.Decider
		}
	}
	if len(res.Violations) > 0 {
		sum.ViolationsByName = res.Violations
		for _, n := range res.Violations {
			sum.AuditViolations += n
		}
	}
	return sum
}

// maxCell returns the row, column and value of the matrix's maximum cell
// (first in row-major order on ties; value 0 when the matrix is empty).
func maxCell(m obs.MatrixSnapshot) (row, col int, v int64) {
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if cv := m.At(r, c); cv > v {
				row, col, v = r, c, cv
			}
		}
	}
	return row, col, v
}
