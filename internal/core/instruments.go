package core

import (
	"fmt"

	"github.com/dsrepro/consensus/internal/obs"
	"github.com/dsrepro/consensus/internal/obs/audit"
	"github.com/dsrepro/consensus/internal/obs/prof"
	"github.com/dsrepro/consensus/internal/obs/space"
	"github.com/dsrepro/consensus/internal/register"
)

// instruments is what one run installs on a protocol stack: the
// observability sink, the invariant monitor, the step profiler and the space
// meter, plus the substrate's register storage mode and the scan layer's
// retry mode. Every protocol embeds it. ExecuteProto resolves one value per
// run and hands it to Protocol.install, which installs every field on every
// layer — nil and false included — so a pooled instance never carries a
// previous run's instruments or modes. A new instrument or mode is one field
// here plus one line in installMemory.
type instruments struct {
	sink *obs.Sink
	mon  *audit.Monitor
	prof *prof.Profiler
	spc  *space.Meter
	// native selects the registers' lock-free storage (register.NativeSetter).
	native bool
	// epoch selects the scan layer's dirty-bit retry path (scan.Arrow.SetEpoch).
	epoch bool
}

// installMemory installs in on a scannable memory and every register beneath
// it. Each memory implements the setters it has a use for; the payload
// layout of its entries is declared by the protocol that owns them.
func installMemory(mem any, in instruments) {
	if m, ok := mem.(register.NativeSetter); ok {
		m.SetNative(in.native)
	}
	if m, ok := mem.(interface{ SetEpoch(bool) }); ok {
		m.SetEpoch(in.epoch)
	}
	if m, ok := mem.(register.SinkSetter); ok {
		m.SetSink(in.sink)
	}
	if m, ok := mem.(interface{ SetMonitor(*audit.Monitor) }); ok {
		m.SetMonitor(in.mon)
	}
	if m, ok := mem.(interface{ SetProfiler(*prof.Profiler) }); ok {
		m.SetProfiler(in.prof)
	}
	if m, ok := mem.(register.SpaceSetter); ok {
		m.SetSpace(in.spc, space.LayerRegister)
	}
}

// prefString renders a preference value for trace details.
func prefString(p int8) string {
	if p == Bottom {
		return "⊥"
	}
	return fmt.Sprintf("%d", p)
}
