package main

import (
	"fmt"
	"os"

	"github.com/dsrepro/consensus/internal/harness"
	"github.com/dsrepro/consensus/internal/obs/space"
)

// runSpace renders a space usage artifact (consensus-sim -space-json).
func runSpace(path string, format harness.Format) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %v\n", err)
		return 1
	}
	u, err := space.ParseUsage(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %v\n", err)
		return 1
	}
	for _, t := range spaceTables(path, u) {
		t.RenderAs(os.Stdout, format)
	}
	return 0
}

// spaceTables builds the analysis tables of one space usage snapshot: the
// per-layer accounting (registers, words, declared vs measured widths) and
// the totals.
func spaceTables(name string, u space.Usage) []*harness.Table {
	lt := &harness.Table{
		Title:   fmt.Sprintf("%s: space per layer", name),
		Columns: []string{"layer", "regs", "live", "words", "declared", "measured", "max|value|", "width"},
	}
	for _, layer := range space.LayerNames() {
		lu, ok := u.Layers[layer]
		if !ok {
			continue
		}
		lt.Add(layer, lu.Regs, lu.LiveRegs, lu.Words,
			bitsCell(lu.DeclaredBits), bitsCell(lu.MeasuredBits), lu.MaxAbs, bitsCell(lu.Bits()))
	}
	lt.Note("declared = information-theoretic width of the layer's value domain; measured = widest payload actually stored; width = max of the two.")
	if len(u.Layers) == 0 {
		lt.Note("snapshot is empty (metering was off or the run recorded nothing).")
	}

	tt := &harness.Table{
		Title:   fmt.Sprintf("%s: space totals", name),
		Columns: []string{"what", "value"},
	}
	tt.Add("registers (peak)", u.Regs)
	tt.Add("registers (live)", u.LiveRegs)
	tt.Add("state words (peak)", u.PeakWords)
	tt.Add("bits/register (max)", bitsCell(u.MaxBits))

	return []*harness.Table{lt, tt}
}

// bitsCell renders a bit width, with space.UnboundedBits as "unbounded".
func bitsCell(bits int) string {
	if bits == space.UnboundedBits {
		return "unbounded"
	}
	return fmt.Sprintf("%d", bits)
}
