package parity_test

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/parity"
	"repro/internal/scenario"
	"repro/internal/stack"
)

// These tests pin Add's private-projection rule against the batch oracle
// on multi-region live sets, where the rule fires beside other regions.

// addMatchesBatch adds regs to a fresh state one region at a time and
// requires every verdict to equal Analyzer.Uncorrectable on the same
// prefix. It returns how many Adds to a non-empty correctable set took
// the rule.
func addMatchesBatch(t *testing.T, an *parity.Analyzer, st *parity.State, regs []fault.Region) (fired int) {
	t.Helper()
	st.Reset()
	for i, r := range regs {
		if i > 0 && !st.Uncorrectable() && st.PrivateFor(r) {
			fired++
		}
		got := st.Add(&r)
		if want := an.Uncorrectable(regs[:i+1]); got != want {
			t.Fatalf("%v: Add of region %d = %v, batch = %v\nset: %+v", an.Dims(), i, got, want, regs[:i+1])
		}
	}
	return fired
}

// samplerSets draws n live sets of 2–8 regions from lifetimes of the
// Poisson sampler, concatenating lifetimes until a set is full.
func samplerSets(cfg stack.Config, rates fault.Rates, seed int64, n int) [][]fault.Region {
	s := fault.NewSampler(cfg, rates)
	rng := rand.New(rand.NewSource(seed))
	var sets [][]fault.Region
	for range n {
		want := 2 + rng.Intn(7)
		var set []fault.Region
		for len(set) < want {
			for _, f := range s.SampleLifetime(rng, fault.LifetimeHours) {
				set = append(set, f.Region)
			}
		}
		sets = append(sets, set[:want])
	}
	return sets
}

// rowhammerSets takes n windows of 2–10 consecutive arrivals from
// rowhammer lifetimes: victim rows of one hot bank, often repeated, over
// a Poisson baseline.
func rowhammerSets(t *testing.T, cfg stack.Config, seed int64, n int) [][]fault.Region {
	t.Helper()
	build, err := scenario.BuildFaultModel("rowhammer", cfg, fault.Table1().WithTSV(1430),
		scenario.Params{"breakthroughProb": 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	src := build()
	rng := rand.New(rand.NewSource(seed))
	var sets [][]fault.Region
	for len(sets) < n {
		fs := src.AppendLifetime(rng, fault.LifetimeHours, nil)
		w := 2 + rng.Intn(9)
		if len(fs) < w {
			continue
		}
		at := rng.Intn(len(fs) - w + 1)
		set := make([]fault.Region, w)
		for i, f := range fs[at : at+w] {
			set[i] = f.Region
		}
		sets = append(sets, set)
	}
	return sets
}

// TestPrivateRuleMatchesBatch replays sampled multi-region live sets
// under 1DP, 2DP and 3DP: every Add must match the oracle, and the rule
// must fire on a non-empty set for every source, so the agreement is not
// vacuous.
func TestPrivateRuleMatchesBatch(t *testing.T) {
	cfg := stack.DefaultConfig()
	sources := []struct {
		name string
		sets [][]fault.Region
	}{
		{"table1", samplerSets(cfg, fault.Table1(), 51, 600)},
		{"table1x40", samplerSets(cfg, fault.Table1().BiasLarge(40), 52, 600)},
		{"tsv1430", samplerSets(cfg, fault.Table1().WithTSV(1430), 53, 600)},
		{"rowhammer", rowhammerSets(t, cfg, 54, 600)},
	}
	for _, dims := range []parity.Dims{parity.OneDP, parity.TwoDP, parity.ThreeDP} {
		an := parity.NewAnalyzer(cfg, dims)
		st := an.NewState()
		for _, src := range sources {
			fired := 0
			for _, set := range src.sets {
				fired += addMatchesBatch(t, an, st, set)
			}
			if fired == 0 {
				t.Errorf("%v %s: the rule never fired beside another region", dims, src.name)
			}
		}
	}
}

// TestPrivateRuleNegatives builds live sets where the rule must not fire
// for the last region, because every enabled dimension either sees it in
// more than one unit, sees it through a non-exact coordinate, or shares a
// group coordinate with another live region. The verdict must still
// match the oracle.
func TestPrivateRuleNegatives(t *testing.T) {
	cfg := stack.DefaultConfig()
	ex := fault.ExactPattern
	all := fault.AllPattern()
	region := func(stk int, die, bank, row, col fault.Pattern) fault.Region {
		return fault.Region{Stack: stk, Die: die, Bank: bank, Row: row, Col: col}
	}
	dataTSV := fault.MaskPattern(uint32(cfg.DataTSVs-1), 3)
	for _, tc := range []struct {
		name string
		dims parity.Dims
		set  []fault.Region
	}{
		{"same row, another bank", parity.OneDP, []fault.Region{
			region(0, ex(0), ex(0), ex(5), all),
			region(0, ex(0), ex(1), ex(5), all),
		}},
		{"row shared in one die, die shared with another", parity.TwoDP, []fault.Region{
			region(0, ex(0), ex(0), ex(5), all),
			region(0, ex(2), ex(1), ex(9), all),
			region(0, ex(2), ex(3), ex(5), all),
		}},
		{"full-width row across a column", parity.ThreeDP, []fault.Region{
			region(0, ex(1), ex(2), fault.RangePattern(0, 5200), ex(77)),
			region(0, ex(3), ex(2), fault.RangePattern(0, 5200), ex(78)),
			region(0, ex(1), ex(4), ex(40), ex(78)),
			region(0, ex(1), ex(2), ex(40), all),
		}},
		{"range rows", parity.ThreeDP, []fault.Region{
			region(0, all, ex(1), fault.RangePattern(3, 4), ex(3)),
		}},
		{"strided TSV columns", parity.ThreeDP, []fault.Region{
			region(0, ex(1), all, all, dataTSV),
		}},
		{"bit on a TSV stride", parity.ThreeDP, []fault.Region{
			region(0, ex(1), all, all, dataTSV),
			region(0, ex(1), ex(6), ex(1234), ex(uint32(cfg.DataTSVs+3))),
		}},
	} {
		an := parity.NewAnalyzer(cfg, tc.dims)
		st := an.NewState()
		last := len(tc.set) - 1
		for _, r := range tc.set[:last] {
			st.Add(&r)
		}
		if st.PrivateFor(tc.set[last]) {
			t.Errorf("%s: the rule fired for %+v", tc.name, tc.set[last])
		}
		addMatchesBatch(t, an, st, tc.set)
	}
}
