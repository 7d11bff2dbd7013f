package conformance

import (
	"testing"

	"github.com/dsrepro/consensus/internal/sched"
)

// TestSubstrateConformance applies the full suite to the simulated and the
// native substrate.
func TestSubstrateConformance(t *testing.T) {
	for _, sub := range []sched.Substrate{sched.Simulated(), sched.NewNative(sched.NativeOptions{})} {
		sub := sub
		t.Run(Name(sub.Name()), func(t *testing.T) {
			Run(t, sub, Options{})
		})
	}
}

// otherSubstrate is a substrate the suite has never seen: it wraps a known
// one under another type and name.
type otherSubstrate struct{ sched.Substrate }

func (otherSubstrate) Name() string { return "other" }

// TestFaultInjectionFollowsNativeRegisters pins how the fault arm picks its
// mechanism: by NativeRegisters, not by name. A serialized substrate of any
// name runs the faults itself through the adversary; a native substrate the
// suite cannot rebuild with fault options is refused rather than skipped.
func TestFaultInjectionFollowsNativeRegisters(t *testing.T) {
	crash := map[int]int64{0: 10}
	for _, c := range []struct {
		sub     sched.Substrate
		ok, adv bool
	}{
		{sched.Simulated(), true, true},
		{otherSubstrate{sched.Simulated()}, true, true},
		{sched.NewNative(sched.NativeOptions{}), true, false},
		{otherSubstrate{sched.NewNative(sched.NativeOptions{})}, false, false},
	} {
		faulty, adv, ok := faultSubstrate(c.sub, crash, 0, 0)
		if ok != c.ok || (adv != nil) != c.adv {
			t.Errorf("%T native=%v: ok=%v adversary=%v, want ok=%v adversary=%v",
				c.sub, c.sub.NativeRegisters(), ok, adv != nil, c.ok, c.adv)
		}
		if !c.sub.NativeRegisters() && faulty != c.sub {
			t.Errorf("%T: a serialized substrate must run its own faults", c.sub)
		}
	}
}
