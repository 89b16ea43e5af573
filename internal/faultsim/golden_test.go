package faultsim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ecc"
	"repro/internal/parity"
	"repro/internal/stack"
)

// Golden regression tests: fixed-seed runs whose full Result statistics
// (failure counts, by-year curve, proximate-cause tally) are pinned. The
// incremental evaluator and the allocation-free trial loop must keep these
// bit-identical — any drift here means an optimization changed the
// statistics, not just the speed. Every trial draws from its own RNG
// stream, so the values hold for any worker count and any host.
//
// The values were recorded when the fault sampler moved to superposed
// arrivals (one Poisson count per window, one stream label per event);
// they agree with the batch-evaluation path (TestGoldenResultsBatchPath).
// A change of the sampler's draw order moves them; its law must not, so
// re-record only after the distribution tests in internal/fault pass.

type goldenCase struct {
	name string
	pol  func(cfg stack.Config) Policy
	// opt knobs
	trials    int
	rateScale float64
	tsvFIT    float64

	wantFailures int
	wantByYear   []int
	wantCauses   map[string]int
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			name: "3DP",
			pol: func(cfg stack.Config) Policy {
				return Policy{Predicate: ecc.NewParity(cfg, parity.ThreeDP)}
			},
			trials: 3000, rateScale: 30, tsvFIT: 0,
			wantFailures: 2058,
			wantByYear:   []int{111, 384, 751, 1120, 1466, 1771, 2058},
			wantCauses: map[string]int{
				"bank": 1551, "bit": 12, "column": 207, "row": 8, "subarray": 280,
			},
		},
		{
			name: "Citadel-3DP-DDS-swap",
			pol: func(cfg stack.Config) Policy {
				return Policy{
					Name:       "Citadel",
					Predicate:  ecc.NewParity(cfg, parity.ThreeDP),
					UseTSVSwap: true,
					NewSparer:  ddsSparer,
				}
			},
			trials: 3000, rateScale: 30, tsvFIT: 1430,
			wantFailures: 345,
			wantByYear:   []int{1, 6, 23, 63, 126, 227, 345},
			wantCauses:   map[string]int{"bank": 242, "column": 44, "subarray": 59},
		},
		{
			name: "Symbol8-AcrossChannels",
			pol: func(cfg stack.Config) Policy {
				return Policy{Predicate: ecc.NewSymbol8(cfg, stack.AcrossChannels)}
			},
			trials: 3000, rateScale: 10, tsvFIT: 143,
			wantFailures: 516,
			wantByYear:   []int{15, 64, 124, 217, 306, 410, 516},
			wantCauses: map[string]int{
				"addr-tsv": 19, "bank": 196, "bit": 137, "column": 6,
				"data-tsv": 90, "row": 34, "subarray": 23, "word": 11,
			},
		},
		{
			name: "1DP",
			pol: func(cfg stack.Config) Policy {
				return Policy{Predicate: ecc.NewParity(cfg, parity.OneDP)}
			},
			trials: 2000, rateScale: 30, tsvFIT: 0,
			wantFailures: 1803,
			wantByYear:   []int{264, 741, 1136, 1395, 1569, 1696, 1803},
			wantCauses: map[string]int{
				"bank": 1142, "bit": 465, "column": 29, "row": 75,
				"subarray": 69, "word": 23,
			},
		},
		{
			name: "BCH-6EC7ED",
			pol: func(cfg stack.Config) Policy {
				return Policy{Predicate: ecc.NewBCH6EC7ED(cfg)}
			},
			trials: 2000, rateScale: 5, tsvFIT: 0,
			wantFailures: 1052,
			wantByYear:   []int{219, 399, 571, 698, 830, 936, 1052},
			wantCauses: map[string]int{
				"bank": 552, "row": 263, "subarray": 152, "word": 85,
			},
		},
	}
}

func runGolden(t *testing.T, gc goldenCase, mutate func(*Options)) Result {
	t.Helper()
	opt := testOptions(gc.trials, gc.rateScale, gc.tsvFIT)
	if mutate != nil {
		mutate(&opt)
	}
	return Run(opt, gc.pol(opt.Config))
}

func checkGolden(t *testing.T, gc goldenCase, res Result) {
	t.Helper()
	if res.Failures != gc.wantFailures {
		t.Errorf("%s: Failures = %d, want %d", gc.name, res.Failures, gc.wantFailures)
	}
	if !reflect.DeepEqual(res.FailuresByYear, gc.wantByYear) {
		t.Errorf("%s: FailuresByYear = %v, want %v", gc.name, res.FailuresByYear, gc.wantByYear)
	}
	if !reflect.DeepEqual(res.CauseCounts, gc.wantCauses) {
		t.Errorf("%s: CauseCounts = %v, want %v", gc.name, res.CauseCounts, gc.wantCauses)
	}
	if res.Trials != gc.trials {
		t.Errorf("%s: Trials = %d, want %d", gc.name, res.Trials, gc.trials)
	}
}

// TestGoldenResults pins the engine's default (incremental) path.
func TestGoldenResults(t *testing.T) {
	skipInShort(t)
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			checkGolden(t, gc, runGolden(t, gc, nil))
		})
	}
}

// TestGoldenResultsBatchPath pins the DisableIncremental (batch oracle)
// path to the same values: both evaluation strategies must produce
// bit-identical statistics.
func TestGoldenResultsBatchPath(t *testing.T) {
	skipInShort(t)
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			checkGolden(t, gc, runGolden(t, gc, func(o *Options) {
				o.DisableIncremental = true
			}))
		})
	}
}

// printGolden regenerates the pinned literals; run with
//
//	go test -run TestGoldenResults -v -tags ignore ...
//
// by temporarily calling it from a test when rates or geometry change.
func printGolden(t *testing.T) {
	for _, gc := range goldenCases() {
		res := runGolden(t, gc, nil)
		fmt.Printf("%s:\n  wantFailures: %d,\n  wantByYear:   %#v,\n  wantCauses:   %#v,\n",
			gc.name, res.Failures, res.FailuresByYear, res.CauseCounts)
	}
}

var _ = printGolden
