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
