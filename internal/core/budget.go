package core

// StepBudget returns the conformance step budget for one instance of the
// given protocol at n processes: a deliberately generous bound that no
// correct execution should ever reach, used by the cross-substrate
// conformance suite (internal/conformance) as both the MaxSteps it grants a
// run and the ceiling it asserts the observed step total stayed under.
//
// The polynomial protocols (bounded, Aspnes-Herlihy, strong-coin) decide in
// polynomial expected total work; 4M·n stays above the largest total of
// every simulated golden workload, 9× at n=32 (14.1M steps) and over 250×
// at n=4, and free-running native runs land even lower (near-serial hardware
// interleavings resolve the shared coin quickly). Native totals are bounded
// only in expectation, though: the scan layer is lock-free, not wait-free,
// so under fine-grained injected preemption a rare metastable retry storm —
// every scan pass overlapped by fresh writes — can push a single run past
// ANY fixed budget (observed at 4x this bound under -race, against a
// ~1M-step typical run at n=16). Widening the bound would only delay a
// storm's cut-off, so tests that inject such preemption instead treat a
// budget trip as retryable; see the stress suite's stressAttempts. The
// exponential baselines (local-coin, Abrahamson) have no polynomial bound,
// so they get the stress suite's flat 100M — the conformance suite only
// exercises them at small n, where that budget is astronomically safe.
//
// Substrates may overshoot MaxSteps by up to one step per process before the
// halt propagates (the native backend's processes race the budget flag), so
// budget assertions on observed totals must allow StepBudget(kind, n) + n.
func StepBudget(kind Kind, n int) int64 {
	switch kind {
	case KindExpLocal, KindAbrahamson:
		return 100_000_000
	default:
		return 4_000_000 * int64(n)
	}
}
