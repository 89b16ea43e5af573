package tsv

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/stack"
)

// BenchmarkSwapperApplyReset gates TSV-SWAP as the trial loop drives it.
// One op is one trial's TSV events at the paper's highest TSV rate
// (1430 FIT per die): Reset, then Apply for each event. Trials without a
// TSV event are skipped, since the loop never reaches the swapper for
// them. benchjson tracks trials/s and allocs/op in BENCH_faultsim.json.
func BenchmarkSwapperApplyReset(b *testing.B) {
	cfg := stack.DefaultConfig()
	sampler := fault.NewSampler(cfg, fault.Table1().WithTSV(1430))
	rng := rand.New(rand.NewSource(1))
	var trials [][]fault.Fault
	var buf []fault.Fault
	for len(trials) < 4096 {
		buf = sampler.AppendLifetime(rng, fault.LifetimeHours, buf[:0])
		var events []fault.Fault
		for _, f := range buf {
			if f.Class.IsTSV() {
				events = append(events, f)
			}
		}
		if len(events) > 0 {
			trials = append(trials, events)
		}
	}
	s := NewSwapper(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		for _, f := range trials[i%len(trials)] {
			s.Apply(f)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}
