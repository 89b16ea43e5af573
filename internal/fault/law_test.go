package fault

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stack"
)

// These tests pin the sampler's law rather than its draw order: every
// check is a 99.9% interval, so any correct sampler passes for almost
// every seed, and goldens elsewhere pin the bytes.

// z999 is the two-sided 99.9% normal quantile.
const z999 = 3.2905

// withinPoisson reports whether a Poisson count with mean mu lies in its
// 99.9% normal-approximation interval.
func withinPoisson(count int, mu float64) bool {
	return math.Abs(float64(count)-mu) <= z999*math.Sqrt(mu)+0.5
}

// withinBinomial reports whether k successes of n trials lie in the 99.9%
// normal-approximation interval of Binomial(n, p).
func withinBinomial(k, n int, p float64) bool {
	mu := float64(n) * p
	return math.Abs(float64(k)-mu) <= z999*math.Sqrt(mu*(1-p))+0.5
}

// TestSamplerLaw draws a million Table-I lifetimes with 1430-FIT TSVs and
// checks every stream's event count, the TSV data/address split and the
// spread of arrival years against the Poisson process they superpose.
func TestSamplerLaw(t *testing.T) {
	cfg := stack.DefaultConfig()
	rates := Table1().WithTSV(1430)
	s := NewSampler(cfg, rates)
	rng := rand.New(rand.NewSource(17))
	const lifetimes = 1_000_000
	var counts [numClasses][2]int
	var years [7]int
	total := 0
	var buf []Fault
	for range lifetimes {
		buf = s.AppendLifetime(rng, LifetimeHours, buf[:0])
		for _, f := range buf {
			counts[f.Class][f.Persistence]++
			years[int(f.Hours/HoursPerYear)]++
			total++
		}
	}
	scale := 1e-9 * LifetimeHours * lifetimes
	nDies := float64(cfg.Stacks * (cfg.DataDies + cfg.ECCDies))
	for c := Bit; c <= Bank; c++ {
		for _, p := range [...]Persistence{Transient, Permanent} {
			mu := rates.classRate(c, p) * scale * nDies
			if got := counts[c][p]; !withinPoisson(got, mu) {
				t.Errorf("%v/%v: %d events, want %.0f ± %.0f", c, p, got, mu, z999*math.Sqrt(mu))
			}
		}
	}
	data, addr := counts[DataTSV][Permanent], counts[AddrTSV][Permanent]
	if counts[DataTSV][Transient]+counts[AddrTSV][Transient] != 0 {
		t.Error("transient TSV fault drawn")
	}
	mu := rates.TSVPerDie * scale * float64(cfg.Stacks*cfg.DataDies)
	if !withinPoisson(data+addr, mu) {
		t.Errorf("TSV: %d events, want %.0f ± %.0f", data+addr, mu, z999*math.Sqrt(mu))
	}
	pData := float64(cfg.DataTSVs) / float64(cfg.DataTSVs+cfg.AddrTSVs)
	if !withinBinomial(data, data+addr, pData) {
		t.Errorf("TSV split: %d data of %d, want share %.3f", data, data+addr, pData)
	}
	for y, n := range years {
		if !withinBinomial(n, total, 1.0/7) {
			t.Errorf("year %d: %d of %d arrivals, want a seventh", y+1, n, total)
		}
	}
}

// TestSamplerNeverDrawsZeroRateStream runs samplers whose rate tables
// hold zero entries: only the positive streams may ever fire, including
// when the stream-label uniform sits at its largest value.
func TestSamplerNeverDrawsZeroRateStream(t *testing.T) {
	cfg := stack.DefaultConfig()
	for _, tc := range []struct {
		name  string
		rates Rates
		ok    func(Fault) bool
	}{
		{"row-transient-only", Rates{RowTransient: 5000},
			func(f Fault) bool { return f.Class == Row && f.Persistence == Transient }},
		{"no-tsv", Table1(),
			func(f Fault) bool { return !f.Class.IsTSV() }},
	} {
		s := NewSampler(cfg, tc.rates)
		rng := rand.New(rand.NewSource(18))
		n := 0
		for n < 20000 {
			for _, f := range s.SampleLifetime(rng, LifetimeHours) {
				if !tc.ok(f) {
					t.Fatalf("%s: drew %v", tc.name, f)
				}
				n++
			}
		}
		// The largest uniform Float64 returns ends the label scan on its
		// last entry, which must be a stream with positive weight.
		if d := s.label(rand.New(topSource{})); !tc.ok(Fault{Class: d.class, Persistence: d.persistence}) {
			t.Errorf("%s: top uniform labels %v/%v", tc.name, d.class, d.persistence)
		}
	}
}

// topSource makes rand.Float64 return its largest value, 1-2⁻⁵³.
type topSource struct{}

func (topSource) Int63() int64 { return 1<<63 - 1<<10 }
func (topSource) Seed(int64)   {}

// TestAppendWindowSuffix checks a splitting suffix window: every arrival
// lies in (start, start+span] and the appended faults are sorted.
func TestAppendWindowSuffix(t *testing.T) {
	s := NewSampler(stack.DefaultConfig(), Table1().WithTSV(1430))
	rng := rand.New(rand.NewSource(19))
	const start, span = 3 * HoursPerYear, 4 * HoursPerYear
	prefix := []Fault{{Hours: 5 * HoursPerYear}}
	drawn := 0
	for range 20000 {
		fs := s.AppendWindow(rng, start, span, prefix)
		if fs[0] != prefix[0] {
			t.Fatal("AppendWindow rewrote dst's existing faults")
		}
		for i, f := range fs[1:] {
			if f.Hours <= start || f.Hours > start+span {
				t.Fatalf("arrival at %.1fh outside (%.0f, %.0f]", f.Hours, start, start+span)
			}
			if i > 0 && f.Hours < fs[i].Hours {
				t.Fatalf("window not sorted: %.1f after %.1f", f.Hours, fs[i].Hours)
			}
		}
		drawn += len(fs) - 1
		prefix = fs[:1]
	}
	if drawn == 0 {
		t.Fatal("no suffix arrivals drawn")
	}
}

// TestAppendLifetimeAllocFree pins the trial loop's zero-allocation
// contract at the sampler: a warm buffer takes every lifetime.
func TestAppendLifetimeAllocFree(t *testing.T) {
	s := NewSampler(stack.DefaultConfig(), Table1().WithTSV(1430))
	rng := rand.New(rand.NewSource(20))
	buf := make([]Fault, 0, 64)
	if allocs := testing.AllocsPerRun(1000, func() {
		buf = s.AppendLifetime(rng, LifetimeHours, buf[:0])
	}); allocs != 0 {
		t.Errorf("AppendLifetime allocates %.1f per lifetime, want 0", allocs)
	}
}

// TestPoissonLargeMean covers means above one Knuth step, which are drawn
// as a sum of steps.
func TestPoissonLargeMean(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const lambda, n = 1000.0, 2000
	sum := 0
	for range n {
		sum += poisson(rng, lambda)
	}
	if !withinPoisson(sum, lambda*n) {
		t.Errorf("sum of %d Poisson(%.0f) draws = %d", n, lambda, sum)
	}
}
