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
// The values were recorded when the engine moved to per-trial streams;
// they agree with the batch-evaluation path (TestGoldenResultsBatchPath).

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
			wantFailures: 2005,
			wantByYear:   []int{94, 387, 747, 1113, 1463, 1747, 2005},
			wantCauses: map[string]int{
				"bank": 1501, "bit": 13, "column": 176, "row": 11, "subarray": 303, "word": 1,
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
			wantFailures: 328,
			wantByYear:   []int{1, 4, 18, 52, 109, 182, 328},
			wantCauses:   map[string]int{"bank": 241, "column": 29, "subarray": 58},
		},
		{
			name: "Symbol8-AcrossChannels",
			pol: func(cfg stack.Config) Policy {
				return Policy{Predicate: ecc.NewSymbol8(cfg, stack.AcrossChannels)}
			},
			trials: 3000, rateScale: 10, tsvFIT: 143,
			wantFailures: 508,
			wantByYear:   []int{18, 64, 133, 213, 299, 389, 508},
			wantCauses: map[string]int{
				"addr-tsv": 19, "bank": 187, "bit": 138, "column": 7,
				"data-tsv": 72, "row": 41, "subarray": 24, "word": 20,
			},
		},
		{
			name: "1DP",
			pol: func(cfg stack.Config) Policy {
				return Policy{Predicate: ecc.NewParity(cfg, parity.OneDP)}
			},
			trials: 2000, rateScale: 30, tsvFIT: 0,
			wantFailures: 1803,
			wantByYear:   []int{272, 748, 1129, 1418, 1590, 1717, 1803},
			wantCauses: map[string]int{
				"bank": 1168, "bit": 478, "column": 15, "row": 55,
				"subarray": 60, "word": 27,
			},
		},
		{
			name: "BCH-6EC7ED",
			pol: func(cfg stack.Config) Policy {
				return Policy{Predicate: ecc.NewBCH6EC7ED(cfg)}
			},
			trials: 2000, rateScale: 5, tsvFIT: 0,
			wantFailures: 1081,
			wantByYear:   []int{208, 397, 554, 710, 834, 967, 1081},
			wantCauses: map[string]int{
				"bank": 556, "row": 257, "subarray": 148, "word": 120,
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
