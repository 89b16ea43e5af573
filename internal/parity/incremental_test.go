package parity

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/stack"
)

// TestStateMatchesBatchOracle replays random add/remove sequences through
// the incremental State and requires its verdict to match the batch
// Analyzer.Uncorrectable on the same set after every single step.
func TestStateMatchesBatchOracle(t *testing.T) {
	cfg := tinyConfig()
	rng := rand.New(rand.NewSource(31))
	for _, dims := range []Dims{OneDP, TwoDP, ThreeDP} {
		an := NewAnalyzer(cfg, dims)
		st := an.NewState()
		for seq := 0; seq < 60; seq++ {
			st.Reset()
			var cur []fault.Region
			steps := 4 + rng.Intn(10)
			for step := 0; step < steps; step++ {
				if len(cur) > 0 && rng.Intn(3) == 0 {
					// Remove a random present region.
					i := rng.Intn(len(cur))
					r := cur[i]
					cur = append(cur[:i], cur[i+1:]...)
					st.Remove(r)
				} else {
					r := randomRegion(rng, cfg)
					r.Stack = rng.Intn(2)
					if len(enumerateCells(cfg, r)) == 0 {
						continue
					}
					cur = append(cur, r)
					st.Add(r)
				}
				want := an.Uncorrectable(cur)
				if got := st.Uncorrectable(); got != want {
					t.Fatalf("%v seq %d step %d: incremental = %v, batch = %v\nset: %+v",
						dims, seq, step, got, want, cur)
				}
				if st.Len() != len(cur) {
					t.Fatalf("%v seq %d step %d: Len = %d, want %d", dims, seq, step, st.Len(), len(cur))
				}
			}
		}
	}
}

// TestStateRemoveAbsentRegionIsNoop pins the contract that removing a
// region not in the set leaves the verdict untouched.
func TestStateRemoveAbsentRegionIsNoop(t *testing.T) {
	cfg := tinyConfig()
	an := NewAnalyzer(cfg, ThreeDP)
	st := an.NewState()
	r := fault.Region{Stack: 0, Die: fault.ExactPattern(0), Bank: fault.ExactPattern(0),
		Row: fault.ExactPattern(1), Col: fault.AllPattern()}
	st.Add(r)
	other := r
	other.Row = fault.ExactPattern(2)
	if st.Remove(other); st.Len() != 1 {
		t.Fatalf("Remove of absent region changed the set: Len = %d", st.Len())
	}
	if st.Uncorrectable() {
		t.Fatal("single row fault should stay correctable")
	}
}

// TestStateSteadyStateAllocFree verifies the Add/Remove/Reset loop performs
// no heap allocation once scratch buffers are warm.
func TestStateSteadyStateAllocFree(t *testing.T) {
	cfg := tinyConfig()
	an := NewAnalyzer(cfg, ThreeDP)
	st := an.NewState()
	rng := rand.New(rand.NewSource(33))
	var seqs [][]fault.Region
	for i := 0; i < 8; i++ {
		var s []fault.Region
		for j := 0; j < 6; j++ {
			r := randomRegion(rng, cfg)
			if len(enumerateCells(cfg, r)) == 0 {
				continue
			}
			s = append(s, r)
		}
		seqs = append(seqs, s)
	}
	replay := func() {
		for _, s := range seqs {
			st.Reset()
			for _, r := range s {
				st.Add(r)
			}
			for i := len(s) - 1; i >= 0; i-- {
				st.Remove(s[i])
			}
		}
	}
	replay() // warm the scratch buffers
	if allocs := testing.AllocsPerRun(20, replay); allocs != 0 {
		t.Errorf("steady-state State loop allocates %.1f times per replay, want 0", allocs)
	}
}

// singletonRegions lists footprints for the lone-fault Add test: sampled
// regions of every class the fault sampler places, plus hand-built
// regions that are not exact in some unit coordinate or that fall
// outside the geometry's domain.
func singletonRegions(t *testing.T, cfg stack.Config, sampled bool) []fault.Region {
	t.Helper()
	dies := uint32(cfg.DataDies + cfg.ECCDies)
	banks := uint32(cfg.BanksPerDie)
	rows := uint32(cfg.RowsPerBank)
	cols := uint32(cfg.RowBytes * 8)
	ex := fault.ExactPattern
	all := fault.AllPattern()
	var out []fault.Region
	add := func(die, bank, row, col fault.Pattern) {
		out = append(out, fault.Region{Die: die, Bank: bank, Row: row, Col: col})
	}
	add(ex(1), ex(2), fault.RangePattern(2, 5), all)                               // row range
	add(ex(1), ex(2), fault.RangePattern(3, 4), ex(0))                             // one row, by range
	add(ex(1), all, all, fault.MaskPattern(uint32(cfg.DataTSVs-1), 3))             // data TSV
	add(ex(0), all, fault.MaskPattern(2, 2), all)                                  // address TSV
	add(ex(0), ex(1), fault.MaskPattern(2, 0), fault.MaskPattern(^uint32(63), 64)) // address TSV, word
	add(all, ex(1), ex(2), ex(3))                                                  // every die
	add(ex(2), all, ex(2), ex(3))                                                  // every bank
	add(fault.MaskPattern(dies-1, 1), ex(1), ex(1), all)                           // one die, by mask
	add(fault.Pattern{Mask: ^uint32(0), Val: 1, Hi: dies}, ex(0), ex(0), ex(0))
	add(fault.Pattern{Mask: ^uint32(0), Val: 1, Lo: 2}, ex(0), ex(0), ex(0)) // empty die
	// {n-top, n}: one member inside a non-power-of-two domain of n and
	// one beyond it, so the region's unit count is one but its mask is
	// not exact.
	beyond := func(n uint32) fault.Pattern {
		top := uint32(1) << (bits.Len32(n-1) - 1)
		return fault.MaskPattern(^top, n-top)
	}
	for _, p := range []fault.Pattern{ex(1), all} {
		for _, q := range []fault.Pattern{ex(1), all} {
			add(beyond(dies), p, q, all)
			add(p, beyond(banks), q, all)
			add(p, q, beyond(rows), all)
		}
	}
	add(ex(dies+3), ex(0), ex(0), all)   // out-of-domain die
	add(ex(0), ex(banks), ex(0), all)    // out-of-domain bank
	add(ex(0), ex(0), ex(rows+1), all)   // out-of-domain row
	add(ex(0), ex(0), ex(0), ex(cols+5)) // out-of-domain column
	if !sampled {
		return out
	}
	s := fault.NewSampler(cfg, fault.Table1().BiasLarge(200).WithTSV(20000))
	rng := rand.New(rand.NewSource(41))
	const perClass, classes = 25, 8
	seen := map[fault.Class]int{}
	for n := 0; n < perClass*classes; {
		for _, f := range s.SampleLifetime(rng, fault.LifetimeHours) {
			if seen[f.Class] < perClass {
				seen[f.Class]++
				out = append(out, f.Region)
				n++
			}
		}
	}
	return out
}

// oddConfig is tinyConfig with die, bank and row counts that are not
// powers of two.
func oddConfig() stack.Config {
	cfg := tinyConfig()
	cfg.DataDies, cfg.BanksPerDie, cfg.RowsPerBank = 3, 3, 6
	return cfg
}

// TestSingletonAddMatchesBatch pins Add's lone-region shortcut: one
// region added to an empty State must get the batch oracle's verdict,
// whether or not the shortcut applies.
func TestSingletonAddMatchesBatch(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     stack.Config
		sampled bool
	}{
		{"tiny", tinyConfig(), false},
		{"odd", oddConfig(), false},
		{"default", stack.DefaultConfig(), true},
	} {
		regions := singletonRegions(t, tc.cfg, tc.sampled)
		for _, dims := range []Dims{OneDP, TwoDP, ThreeDP} {
			an := NewAnalyzer(tc.cfg, dims)
			st := an.NewState()
			for i, r := range regions {
				st.Reset()
				got := st.Add(r)
				if want := an.Uncorrectable([]fault.Region{r}); got != want {
					t.Fatalf("%s %v region %d: Add = %v, batch = %v\nregion: %+v",
						tc.name, dims, i, got, want, r)
				}
				if st.Uncorrectable() != got {
					t.Fatalf("%s %v region %d: Uncorrectable() disagrees with Add", tc.name, dims, i)
				}
			}
		}
	}
}
