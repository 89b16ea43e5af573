package faultsim

import (
	"testing"

	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/parity"
	"repro/internal/stack"
)

// Engine microbenchmarks for the incremental-vs-batch evaluation paths.
// These drive Run end to end (sampling + scrubbing + evaluation) so the
// trials/s metric is comparable with the root-level
// BenchmarkMonteCarloTrialThroughput figure quoted in the README.

func benchPolicy(cfg stack.Config) Policy {
	return Policy{
		Name:       "Citadel",
		Predicate:  ecc.NewParity(cfg, parity.ThreeDP),
		UseTSVSwap: true,
		NewSparer:  ddsSparer,
	}
}

func benchRun(b *testing.B, disableIncremental bool) {
	opt := Options{
		Config: stack.DefaultConfig(),
		Rates:  fault.Table1().WithTSV(1430),
		Trials: b.N,
		Seed:   1,

		DisableIncremental: disableIncremental,
	}.withDefaults()
	b.ResetTimer()
	r := Run(opt, benchPolicy(opt.Config))
	b.ReportMetric(float64(r.Trials)/b.Elapsed().Seconds(), "trials/s")
}

// BenchmarkTrialsIncremental is the optimized default path.
func BenchmarkTrialsIncremental(b *testing.B) { benchRun(b, false) }

// BenchmarkTrialsBatch is the pre-optimization oracle path, kept as the
// speedup baseline.
func BenchmarkTrialsBatch(b *testing.B) { benchRun(b, true) }

// BenchmarkTrialStateRun isolates the trial loop from sampling: replay a
// fixed multi-fault lifetime through ts.run.
func BenchmarkTrialStateRun(b *testing.B) {
	opt := testOptions(0, 40, 1000).withDefaults()
	seqs := trialSequences(opt, 64)
	ts := newTrialState(opt.Config, benchPolicy(opt.Config), opt.ScrubIntervalHours, false)
	for _, fs := range seqs {
		ts.run(fs) // warm scratch
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.run(seqs[i%len(seqs)])
	}
}

// BenchmarkParityStateAdd measures the incremental parity evaluator's Add
// over a rolling window of live faults, at 40x Table-I rates where most
// faults join a multi-fault interference component.
func BenchmarkParityStateAdd(b *testing.B) { benchParityStateAdd(b, 40) }

// BenchmarkParityStateAddTable1 is the same loop at Table-I rates, where
// most faults are alone in their component and Add skips the peel.
func BenchmarkParityStateAddTable1(b *testing.B) { benchParityStateAdd(b, 1) }

func benchParityStateAdd(b *testing.B, rateScale float64) {
	opt := testOptions(0, rateScale, 0).withDefaults()
	seqs := trialSequences(opt, 64)
	an := parity.NewAnalyzer(opt.Config, parity.ThreeDP)
	st := an.NewState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Reset()
		for _, f := range seqs[i%len(seqs)] {
			if st.Add(f.Region) {
				break
			}
		}
	}
}
