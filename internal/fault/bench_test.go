package fault

import (
	"math/rand"
	"testing"

	"repro/internal/stack"
)

// BenchmarkSamplerAppendLifetime gates the Poisson sampler, the arrival
// layer of every FIT-rate campaign. One op draws one seven-year lifetime
// into a reused buffer, so trials/s is the sampler's share of the trial
// loop; benchjson tracks it and allocs/op in BENCH_faultsim.json.
func BenchmarkSamplerAppendLifetime(b *testing.B) {
	for _, bc := range []struct {
		name  string
		rates Rates
	}{
		{"table1", Table1()},
		{"tsv1430", Table1().WithTSV(1430)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewSampler(stack.DefaultConfig(), bc.rates)
			rng := rand.New(rand.NewSource(1))
			var buf []Fault
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = s.AppendLifetime(rng, LifetimeHours, buf[:0])
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}
