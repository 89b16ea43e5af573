package faultsim_test

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/parity"
	"repro/internal/scenario"
	"repro/internal/stack"
)

// BenchmarkParityStateAddRowhammer is the BenchmarkParityStateAdd loop
// over rowhammer lifetimes at the sweep's breakthrough probability:
// victim rows of one hot bank over a Table-I baseline, so most Adds meet
// another region of the same bank. Every scrub boundary empties the
// state, as scrubbing and DDS sparing empty a correctable Citadel live
// set; without that a lifetime's hundreds of hammer faults would pile up
// in one set. TSV faults are left out, because with no TSV-SWAP in front
// of the parity state they would end most lists at their first fault.
func BenchmarkParityStateAddRowhammer(b *testing.B) {
	cfg := stack.DefaultConfig()
	build, err := scenario.BuildFaultModel("rowhammer", cfg, fault.Table1(),
		scenario.Params{"breakthroughProb": 1e-7})
	if err != nil {
		b.Fatal(err)
	}
	src := build()
	rng := rand.New(rand.NewSource(1))
	var seqs [][]fault.Fault
	for len(seqs) < 64 {
		if fs := src.AppendLifetime(rng, fault.LifetimeHours, nil); len(fs) >= 2 {
			seqs = append(seqs, fs)
		}
	}
	st := parity.NewAnalyzer(cfg, parity.ThreeDP).NewState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Reset()
		lastScrub := 0
		for _, f := range seqs[i%len(seqs)] {
			if scrub := int(f.Hours / faultsim.DefaultScrubIntervalHours); scrub > lastScrub {
				st.Reset()
				lastScrub = scrub
			}
			if st.Add(&f.Region) {
				break
			}
		}
	}
}
