package scenario

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/stack"
)

const lifetimeHours = 7 * 24 * 365.25

// hotParams makes episodes frequent enough that a few hundred trials
// exercise every code path without relying on the rare defaults.
var hotParams = Params{
	"breakthroughProb": 1e-7,
	"baselinePoisson":  0,
}

func rowhammerLifetimes(t *testing.T, p Params, seed int64, trials int) ([][]fault.Fault, *rowhammerArrivals) {
	t.Helper()
	factory, err := BuildFaultModel(rowhammerModelName, stack.DefaultConfig(), fault.Table1(), p)
	if err != nil {
		t.Fatal(err)
	}
	src := factory().(*rowhammerArrivals)
	rng := rand.New(rand.NewSource(seed))
	out := make([][]fault.Fault, trials)
	for i := range out {
		out[i] = src.AppendLifetime(rng, lifetimeHours, nil)
	}
	return out, src
}

func TestRowhammerBuildValidation(t *testing.T) {
	bad := []Params{
		{"aggressors": 0},
		{"hammerActsPerHour": -1},
		{"hammerThreshold": 0},
		{"breakthroughProb": 0},
		{"breakthroughProb": 2},
		{"victimRows": 0},
		{"victimPermanentProb": 1.5},
		{"aggressorStride": 0},
		{"rateSigma": -1},
	}
	for _, p := range bad {
		if _, err := BuildFaultModel(rowhammerModelName, stack.DefaultConfig(), fault.Table1(), p); err == nil {
			t.Errorf("params %v: expected error", p)
		}
	}
}

func TestRowhammerDeterministic(t *testing.T) {
	a, _ := rowhammerLifetimes(t, hotParams, 42, 50)
	b, _ := rowhammerLifetimes(t, hotParams, 42, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fault streams")
	}
	c, _ := rowhammerLifetimes(t, hotParams, 43, 50)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fault streams")
	}
}

func TestRowhammerArrivalShape(t *testing.T) {
	cfg := stack.DefaultConfig()
	trials, src := rowhammerLifetimes(t, hotParams, 7, 400)
	total := 0
	for _, faults := range trials {
		for i, f := range faults {
			total++
			if f.Class != fault.Row {
				t.Fatalf("hammer-only run emitted class %v", f.Class)
			}
			if f.Hours <= 0 || f.Hours >= lifetimeHours {
				t.Fatalf("arrival at %g h outside (0, %g)", f.Hours, lifetimeHours)
			}
			if i > 0 && faults[i].Hours < faults[i-1].Hours {
				t.Fatal("arrivals not sorted by Hours")
			}
			if f.Region.Stack < 0 || f.Region.Stack >= cfg.Stacks {
				t.Fatalf("stack %d out of range", f.Region.Stack)
			}
			die, ok := f.Region.Die.First(uint32(cfg.DataDies + cfg.ECCDies))
			if !ok || die >= uint32(cfg.DataDies) {
				t.Fatalf("victim die %d not a data die", die)
			}
			if _, ok := f.Region.Row.First(uint32(cfg.RowsPerBank)); !ok {
				t.Fatal("victim row out of range")
			}
		}
	}
	if total == 0 {
		t.Fatal("hot parameters produced zero hammer faults in 400 lifetimes")
	}
	// Spatial correlation: every fault of one trial lands in the single
	// hot (stack, die, bank).
	for _, faults := range trials {
		for _, f := range faults[1:] {
			if f.Region.Stack != faults[0].Region.Stack ||
				f.Region.Die != faults[0].Region.Die ||
				f.Region.Bank != faults[0].Region.Bank {
				t.Fatal("hammer faults of one trial spread beyond the hot bank")
			}
		}
	}
	stats := map[string]float64{}
	src.FlushStats(stats)
	if stats["hammerTrials"] != 400 {
		t.Fatalf("hammerTrials = %g, want 400", stats["hammerTrials"])
	}
	if stats["hammerVictimFaults"] < float64(total) {
		t.Fatalf("hammerVictimFaults = %g < %d emitted", stats["hammerVictimFaults"], total)
	}
	histSum := stats["hammerTrialsEp0"] + stats["hammerTrialsEp1to3"] + stats["hammerTrialsEp4to15"] + stats["hammerTrialsEp16plus"]
	if histSum != 400 {
		t.Fatalf("episode histogram sums to %g, want 400", histSum)
	}
}

// A hostile parameter choice must degrade to the bounded cap, not an
// unbounded allocation.
func TestRowhammerFaultCap(t *testing.T) {
	p := Params{
		"breakthroughProb": 1,
		"hammerThreshold":  1,
		"baselinePoisson":  0,
		"victimRows":       1,
	}
	trials, _ := rowhammerLifetimes(t, p, 1, 2)
	for _, faults := range trials {
		if len(faults) > maxHammerFaults {
			t.Fatalf("trial emitted %d faults, cap is %d", len(faults), maxHammerFaults)
		}
	}
}

func TestRowhammerBaselineComposes(t *testing.T) {
	// With the baseline on, the stream includes non-Row classes (TSV,
	// bit, bank...) from the Poisson process at boosted rates.
	p := Params{"baselinePoisson": 1, "breakthroughProb": 1e-7}
	factory, err := BuildFaultModel(rowhammerModelName, stack.DefaultConfig(), fault.Table1().WithTSV(1430), p)
	if err != nil {
		t.Fatal(err)
	}
	src := factory()
	rng := rand.New(rand.NewSource(3))
	classes := map[fault.Class]int{}
	var buf []fault.Fault
	for i := 0; i < 2000; i++ {
		buf = src.AppendLifetime(rng, lifetimeHours, buf[:0])
		for j, f := range buf {
			classes[f.Class]++
			if j > 0 && buf[j].Hours < buf[j-1].Hours {
				t.Fatal("merged stream not sorted by Hours")
			}
		}
	}
	if len(classes) < 2 {
		t.Fatalf("baseline composition produced only classes %v", classes)
	}
}

func TestMergeRunsMatchesStableSort(t *testing.T) {
	// mergeRuns on concatenated sorted runs, with empty runs and ties both
	// within and across runs, must order faults exactly as a stable sort
	// does. TSV tags each fault with its input position so reordered ties
	// would show.
	rng := rand.New(rand.NewSource(8))
	var scratch []fault.Fault
	for trial := 0; trial < 2000; trial++ {
		var region []fault.Fault
		var starts []int
		for run := rng.Intn(7); run >= 0; run-- {
			if len(region) > 0 || rng.Intn(2) == 0 {
				starts = append(starts, len(region))
			}
			h := float64(rng.Intn(8))
			for n := rng.Intn(6); n > 0; n-- {
				region = append(region, fault.Fault{Hours: h, TSV: len(region)})
				h += float64(rng.Intn(3))
			}
		}
		want := slices.Clone(region)
		slices.SortStableFunc(want, func(a, b fault.Fault) int { return cmp.Compare(a.Hours, b.Hours) })
		scratch = mergeRuns(region, starts, scratch)
		if !slices.Equal(region, want) {
			t.Fatalf("runs %v: mergeRuns = %v, stable sort %v", starts, region, want)
		}
	}
}
