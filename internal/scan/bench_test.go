package scan

import (
	"testing"

	"github.com/dsrepro/consensus/internal/register"
	"github.com/dsrepro/consensus/internal/sched"
)

// BenchmarkArrowScanContended measures the Arrow scan under contention: eight
// processes under a random adversary each alternate a write and a scan
// contendedRounds times, so most grants cross processes and scans retry. One
// iteration is one such run, the same execution every time; ns/step is the
// wall time per scheduled step and retries/scan the failed passes per scan.
func BenchmarkArrowScanContended(b *testing.B) {
	const n, contendedRounds = 8, 64
	mem := NewArrow[int](n, register.DirectFactory)
	b.ReportAllocs()
	b.ResetTimer()
	var steps, retries int64
	for i := 0; i < b.N; i++ {
		mem.Reset()
		res, err := sched.Run(sched.Config{N: n, Seed: 1, Adversary: sched.NewRandom(1)}, func(p *sched.Proc) {
			for k := 1; k <= contendedRounds; k++ {
				mem.Write(p, k)
				mem.Scan(p)
			}
		})
		if err != nil {
			b.Fatalf("Run: %v", err)
		}
		steps += res.Steps
		for pid := 0; pid < n; pid++ {
			retries += mem.Retries(pid)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
	b.ReportMetric(float64(retries)/float64(b.N*n*contendedRounds), "retries/scan")
}
