package jobs

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	citadel "repro"
)

// TestResultsIndependentOfParallelism pins the reproducibility contract:
// a seeded result is a pure function of (spec, seed). Every engine runs
// on a grid of GOMAXPROCS × Workers settings and must return results
// that are reflect.DeepEqual across all cells, floats included.
func TestResultsIndependentOfParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every engine on a 4x4 parallelism grid; skipped in -short")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	// Hot rates so a few thousand trials see failures, exemplars and
	// multi-fault lifetimes.
	hot := citadel.Table1Rates().WithTSV(1000)
	for _, r := range []*float64{
		&hot.BitTransient, &hot.BitPermanent, &hot.WordTransient, &hot.WordPermanent,
		&hot.ColumnTransient, &hot.ColumnPermanent, &hot.RowTransient, &hot.RowPermanent,
		&hot.BankTransient, &hot.BankPermanent,
	} {
		*r *= 40
	}
	simulate := func(opts citadel.ReliabilityOptions, scheme string) citadel.Result {
		res, err := citadel.SimulateScenarioReliabilityContext(context.Background(), opts, scheme)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		return res
	}
	engines := []struct {
		name string
		run  func(workers int) any
		// meaningful rejects a reference result that would make the
		// comparison vacuous (no failures, no exemplars, no stats).
		meaningful func(v any) bool
	}{
		{
			name: "citadel-forensics",
			run: func(w int) any {
				return simulate(citadel.ReliabilityOptions{
					Rates: hot, Trials: 3000, Seed: 4242, Workers: w, Forensics: true,
				}, "Citadel")
			},
			meaningful: func(v any) bool { r := v.(citadel.Result); return len(r.Exemplars) > 0 },
		},
		{
			name: "rowhammer",
			run: func(w int) any {
				return simulate(citadel.ReliabilityOptions{
					Trials: 400, Seed: 99, Workers: w, TSVSwap: true, FaultModel: "rowhammer",
					ScenarioParams: map[string]float64{"breakthroughProb": 1e-7},
				}, "Citadel")
			},
			meaningful: func(v any) bool { return v.(citadel.Result).ScenarioStats["hammerEpisodes"] > 0 },
		},
		{
			name: "two-tier",
			run: func(w int) any {
				return simulate(citadel.ReliabilityOptions{Rates: hot, Trials: 2000, Seed: 7, Workers: w},
					"two-tier-replication")
			},
			meaningful: func(v any) bool { return v.(citadel.Result).ScenarioStats["tierFetchBytes"] > 0 },
		},
		{
			name: "census",
			run: func(w int) any {
				return citadel.RunFaultCensusContext(context.Background(), citadel.ReliabilityOptions{
					Rates: hot, Trials: 3000, Seed: 5, Workers: w, TSVSwap: true,
				})
			},
			meaningful: func(v any) bool { return v.(citadel.FaultCensus).TrialsWithBankFailure > 0 },
		},
		{
			name: "rare-is",
			run: func(w int) any {
				return simulate(citadel.ReliabilityOptions{
					Trials: 4000, Seed: 11, Workers: w, RareEvent: true, BiasFactor: 8,
				}, "1DP")
			},
			meaningful: func(v any) bool { r := v.(citadel.Result); return r.Weighted && r.FailWeight > 0 },
		},
		{
			name: "durable-job",
			run: func(w int) any {
				spec := smallSpec(3)
				spec.Reliability.Workers = w
				o, _ := newOrch(t, t.TempDir(), 1, 4)
				j, err := o.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				fin := waitDone(t, o, j.ID)
				if fin.State != StateDone {
					t.Fatalf("durable job: %s (%s)", fin.State, fin.Error)
				}
				return string(fin.Result)
			},
			meaningful: func(v any) bool { return len(v.(string)) > 0 },
		},
	}
	refs := make([]any, len(engines))
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 3, 8} {
			cell := fmt.Sprintf("GOMAXPROCS=%d Workers=%d", procs, workers)
			for i, e := range engines {
				got := e.run(workers)
				if refs[i] == nil {
					if !e.meaningful(got) {
						t.Fatalf("%s: reference result is vacuous: %+v", e.name, got)
					}
					refs[i] = got
					continue
				}
				if !reflect.DeepEqual(got, refs[i]) {
					t.Errorf("%s at %s differs from GOMAXPROCS=1 Workers=1:\n got %+v\nwant %+v",
						e.name, cell, got, refs[i])
				}
			}
		}
	}
}

// TestKeyIgnoresWorkers: the worker count cannot change a result, so two
// specs that differ only in Workers address the same stored result.
func TestKeyIgnoresWorkers(t *testing.T) {
	a, b := smallSpec(9), smallSpec(9)
	b.Reliability.Workers = 8
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("specs differing only in Workers hash differently:\n  %s\n  %s", ka, kb)
	}
}
