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
// The values were recorded when the fault sampler moved to an inverted
// Poisson count, separate data- and address-TSV streams and bounded
// placement draws of only the coordinates a class keeps; they agree
// with the batch-evaluation path (TestGoldenResultsBatchPath).
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
			wantFailures: 2036,
			wantByYear:   []int{115, 387, 766, 1134, 1463, 1778, 2036},
			wantCauses: map[string]int{
				"bank": 1552, "bit": 16, "column": 196, "row": 7, "subarray": 265,
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
			wantFailures: 369,
			wantByYear:   []int{1, 6, 24, 76, 146, 240, 369},
			wantCauses:   map[string]int{"bank": 266, "column": 50, "subarray": 53},
		},
		{
			name: "Symbol8-AcrossChannels",
			pol: func(cfg stack.Config) Policy {
				return Policy{Predicate: ecc.NewSymbol8(cfg, stack.AcrossChannels)}
			},
			trials: 3000, rateScale: 10, tsvFIT: 143,
			wantFailures: 524,
			wantByYear:   []int{10, 42, 117, 186, 284, 383, 524},
			wantCauses: map[string]int{
				"addr-tsv": 21, "bank": 185, "bit": 140, "column": 7,
				"data-tsv": 85, "row": 36, "subarray": 29, "word": 21,
			},
		},
		{
			name: "1DP",
			pol: func(cfg stack.Config) Policy {
				return Policy{Predicate: ecc.NewParity(cfg, parity.OneDP)}
			},
			trials: 2000, rateScale: 30, tsvFIT: 0,
			wantFailures: 1819,
			wantByYear:   []int{281, 752, 1125, 1374, 1587, 1716, 1819},
			wantCauses: map[string]int{
				"bank": 1155, "bit": 476, "column": 21, "row": 65,
				"subarray": 73, "word": 29,
			},
		},
		{
			name: "BCH-6EC7ED",
			pol: func(cfg stack.Config) Policy {
				return Policy{Predicate: ecc.NewBCH6EC7ED(cfg)}
			},
			trials: 2000, rateScale: 5, tsvFIT: 0,
			wantFailures: 1053,
			wantByYear:   []int{202, 403, 567, 706, 833, 952, 1053},
			wantCauses: map[string]int{
				"bank": 543, "row": 263, "subarray": 140, "word": 107,
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
