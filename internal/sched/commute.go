package sched

// The commuting grant policy (Config.Commuting) generalizes sequential
// dispatch: instead of granting one step per adversary consult, the
// adversary's pick opens a *batch* — a set of waiting processes whose declared
// register footprints pairwise commute (see footprint.go) — and every batch
// member receives a run of steps before the adversary is consulted again. It
// runs on the dispatcher's engine (slots, startup, parking, grant
// bookkeeping, halt, completion); this file holds only what differs:
// footprint capture, batch formation at the leader pick, run extension and
// member handoff.
//
// The engine never executes two steps at the same wall-clock instant: batch
// members run one after another in admission order, each holding the token
// for up to commuteQuantum steps, so the execution *is* a sequential schedule
// and stays byte-deterministic. What the batch buys is schedule shape and
// engine overhead: commuting runs let an O(n) scan complete without an
// adversary-inserted writer tripping it (the scan-retry burn the profiler
// blames for the n-scaling wall), coalesced runs replace coroutine handoffs
// with plain returns, and the adversary is consulted once per batch instead
// of once per step. Because every executed schedule is a legal sequential
// grant order, replaying its recorded grant sequence under the sequential
// policy reproduces the run byte-for-byte — the equivalence suites
// (commute_test.go, core/dispatch_equiv_test.go) prove exactly that.
//
// Memory-model note: like the rest of the engine's state, the policy's state
// is owned by the token holder. A parked process's last action before
// parking is its yield to Run, at a handoff or at its first Step in
// startup; that coroutine switch, and Run's resume of the next holder,
// publish its footprint declaration to later token holders, so the batch
// former reads fps[pid] race-free.

// commuteQuantum bounds how many consecutive steps one batch member may
// coalesce before the token moves on. Large enough for a full scan pass plus
// a write at the ns the matrix measures, small enough that batch mates are
// not starved within their batch.
const commuteQuantum = 64

// commuter is the commuting grant policy's gate on top of the dispatcher.
type commuter struct {
	*dispatcher
	ext Extender // non-nil iff adv implements Extender

	// fps[pid] is the footprint pid declared for its pending step; it is
	// consumed (and only changes) when pid next runs, so for a parked batch
	// member it is exactly the admitted footprint.
	fps      []Footprint
	batch    []int // admitted commuting set, in grant order
	batchIdx int   // index of the member currently holding the token
	runLeft  int   // quantum remaining for the current member's run
}

// step implements gate: capture the caller's declared footprint, then take
// the engine's step path with this policy's dispatch.
func (c *commuter) step(p *Proc) {
	c.fps[p.id] = Footprint{Key: p.fpKey, Write: p.fpWrite}
	p.fpKey, p.fpWrite = 0, false
	if c.enter(p) && c.dispatch(p.id) {
		return
	}
	c.park(p.id)
}

// eligible reports whether the adversary permits engine-chosen grants to pid
// right now. Without an Extender nothing beyond the leader pick is permitted.
func (c *commuter) eligible(pid int) bool {
	return c.ext != nil && c.ext.Eligible(pid, c.steps)
}

// extensionCommutes reports whether self's newly declared footprint commutes
// with every admitted-but-not-yet-executed batch member's granted step. Only
// members after batchIdx are in flight: earlier members already executed
// their grants, and fps for them has moved on to their next (unadmitted) op.
func (c *commuter) extensionCommutes(self int) bool {
	for k := c.batchIdx + 1; k < len(c.batch); k++ {
		m := c.batch[k]
		if c.isLive[m] && !Commutes(c.fps[self], c.fps[m]) {
			return false
		}
	}
	return true
}

// dispatch issues the next grant: extend the current member's run, hand the
// token to the next admitted member, or consult the adversary for a new
// batch. Like the sequential dispatch, it reports whether the grant went to
// self, which is -1 when no process is asking. The budget is checked first:
// once it is spent, every path halts the same way.
func (c *commuter) dispatch(self int) bool {
	if c.exhausted() {
		c.err = ErrStepBudget
		return false
	}
	// Run extension: the current member keeps the token for up to a quantum,
	// as long as the adversary still considers it eligible and each new
	// footprint commutes with every in-flight granted step. An undeclared
	// footprint extends only when no other grants are in flight (the batch
	// tail is empty), where any op is trivially safe.
	if self >= 0 && c.batchIdx < len(c.batch) && c.batch[c.batchIdx] == self &&
		c.runLeft > 0 && c.eligible(self) &&
		(c.extensionCommutes(self) && (c.fps[self].Declared() || c.batchIdx == len(c.batch)-1)) {
		c.runLeft--
		return c.issue(self, self)
	}
	// Member handoff: advance to the next live, still-eligible admitted
	// member. A member that finished or crashed since admission is skipped —
	// its granted step never executes.
	for c.batchIdx+1 < len(c.batch) {
		c.batchIdx++
		if pid := c.batch[c.batchIdx]; c.isLive[pid] && c.eligible(pid) {
			c.runLeft = commuteQuantum - 1
			return c.issue(pid, self)
		}
	}
	// Batch exhausted: the adversary picks the next leader; eligible waiters
	// with pairwise-commuting footprints join its batch.
	pick := c.adv.Next(c.live, c.steps)
	if pick < 0 || pick >= c.n || !c.isLive[pick] {
		c.refuse(pick)
		return false
	}
	var elig func(pid int) bool
	if c.ext != nil {
		elig = func(pid int) bool { return c.isLive[pid] && c.ext.Eligible(pid, c.steps) }
	}
	c.batch = BuildCommutingSet(pick, c.live, c.fps, elig, c.batch)
	if err := VerifyCommutingSet(c.batch, c.fps); err != nil {
		c.badPick = err.Error()
		c.err = ErrStalled
		return false
	}
	c.batchIdx = 0
	c.runLeft = commuteQuantum - 1
	return c.issue(pick, self)
}
