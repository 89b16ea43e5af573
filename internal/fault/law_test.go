package fault

import (
	"math"
	"math/bits"
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

// withinUniform reports whether counts are consistent with a uniform law
// over their bins at 99.9%: Pearson's statistic against the
// Wilson–Hilferty approximation of the chi-square quantile.
func withinUniform(counts []int) (stat, limit float64, ok bool) {
	n := 0
	for _, c := range counts {
		n += c
	}
	mu := float64(n) / float64(len(counts))
	for _, c := range counts {
		d := float64(c) - mu
		stat += d * d / mu
	}
	df := float64(len(counts) - 1)
	const z = 3.0902 // one-sided 99.9% normal quantile
	h := 2 / (9 * df)
	limit = df * math.Pow(1-h+z*math.Sqrt(h), 3)
	return stat, limit, stat <= limit
}

// TestSamplerDrawLaw draws a million lifetimes at Table-I rates and at
// 1430 FIT and checks the law of what the sampler draws: the event count
// of a lifetime against Poisson(Λ) for k = 0…4, and the marginal of every
// placed coordinate against the uniform law over its range.
func TestSamplerDrawLaw(t *testing.T) {
	cfg := stack.DefaultConfig()
	dies := cfg.DataDies + cfg.ECCDies
	rowBits := cfg.RowBytes * 8
	for _, tc := range []struct {
		name  string
		rates Rates
	}{
		{"table1", Table1()},
		{"tsv1430", Table1().WithTSV(1430)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSampler(cfg, tc.rates)
			rng := rand.New(rand.NewSource(22))
			const lifetimes = 1_000_000
			var nk [5]int
			tally := map[string][]int{}
			bin := func(name string, bins, v int) {
				if tally[name] == nil {
					tally[name] = make([]int, bins)
				}
				tally[name][v]++
			}
			var buf []Fault
			for range lifetimes {
				buf = s.AppendLifetime(rng, LifetimeHours, buf[:0])
				if len(buf) < len(nk) {
					nk[len(buf)]++
				}
				for _, f := range buf {
					r := f.Region
					bin("stack", cfg.Stacks, r.Stack)
					bin("die", dies, int(r.Die.Val))
					if !f.Class.IsTSV() {
						bin("bank", cfg.BanksPerDie, int(r.Bank.Val))
					}
					switch f.Class {
					case Bit, Word, Row:
						bin("row/1024", cfg.RowsPerBank/1024, int(r.Row.Val)/1024)
						bin("row%64", 64, int(r.Row.Val)%64)
					case Column, SubArray:
						bin("subarray", cfg.RowsPerBank/tc.rates.SubArrayRows, int(r.Row.Lo)/tc.rates.SubArrayRows)
					}
					switch f.Class {
					case Bit, Column:
						bin("col/128", rowBits/128, int(r.Col.Val)/128)
						bin("col%64", 64, int(r.Col.Val)%64)
					case Word:
						bin("word", rowBits/64, int(r.Col.Val)/64)
					case DataTSV:
						bin("data-tsv", cfg.DataTSVs, f.TSV)
					case AddrTSV:
						bin("addr-tsv", cfg.AddrTSVs, f.TSV)
						k := bits.TrailingZeros32(r.Row.Mask)
						bin("addr-bit-half", 2*bitsFor(cfg.RowsPerBank), 2*k+int(r.Row.Val>>k))
					}
				}
			}
			// Λ from the rates, independently of the sampler's weights.
			nDies := float64(cfg.Stacks * dies)
			var lam float64
			for c := Bit; c <= Bank; c++ {
				lam += (tc.rates.classRate(c, Transient) + tc.rates.classRate(c, Permanent)) * nDies
			}
			lam += tc.rates.TSVPerDie * float64(cfg.Stacks*cfg.DataDies)
			lam *= 1e-9 * LifetimeHours
			pk := math.Exp(-lam)
			for k, got := range nk {
				if !withinBinomial(got, lifetimes, pk) {
					t.Errorf("P(N=%d): %d of %d lifetimes, want %.5f", k, got, lifetimes, pk)
				}
				pk *= lam / float64(k+1)
			}
			want := []string{"stack", "die", "bank", "row/1024", "row%64", "subarray", "col/128", "col%64", "word"}
			if tc.rates.TSVPerDie > 0 {
				want = append(want, "data-tsv", "addr-tsv", "addr-bit-half")
			}
			for _, name := range want {
				if tally[name] == nil {
					t.Errorf("%s: no fault drew this coordinate", name)
					continue
				}
				if stat, limit, ok := withinUniform(tally[name]); !ok {
					t.Errorf("%s: chi-square %.1f over %d bins exceeds %.1f: %v",
						name, stat, len(tally[name]), limit, tally[name])
				}
			}
		})
	}
}

// stubSource replays a fixed sequence of 64-bit words.
type stubSource struct{ words []uint64 }

func (s *stubSource) Uint64() uint64 {
	w := s.words[0]
	s.words = s.words[1:]
	return w
}
func (s *stubSource) Int63() int64 { return int64(s.Uint64() >> 1) }
func (s *stubSource) Seed(int64)   {}

// TestBoundedDrawRejects forces the rejection branch of the bounded
// draw: a zero half is among the 2³² mod n products that would bias
// [0, n), so it must be redrawn from the next half, and each 64-bit word
// serves two draws.
func TestBoundedDrawRejects(t *testing.T) {
	for _, n := range []uint32{3, 144, 3 << 30} {
		// Halves in order: 0 (rejected), 0x9e3779b9, then 0xffffffff.
		src := &stubSource{words: []uint64{0x9e3779b9 << 32, 0xffffffff}}
		d := draws{rng: rand.New(src)}
		if got, want := d.intn(n), uint32(uint64(0x9e3779b9)*uint64(n)>>32); got != want {
			t.Errorf("n=%d: first draw %d, want %d from the half after the rejected one", n, got, want)
		}
		if got, want := d.intn(n), uint32(uint64(0xffffffff)*uint64(n)>>32); got != want {
			t.Errorf("n=%d: second draw %d, want %d", n, got, want)
		}
		if len(src.words) != 0 {
			t.Errorf("n=%d: %d words left, want both halves of two words used", n, len(src.words))
		}
	}
	// A power of two has no surplus: a zero half is a valid draw.
	d := draws{rng: rand.New(&stubSource{words: []uint64{0}})}
	if got := d.intn(8); got != 0 {
		t.Errorf("n=8: zero half drew %d, want 0", got)
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

// TestLifetimeCountTable checks that the lifetime window's CDF table
// changes no count: at random uniforms, at every table entry and its
// float64 neighbours, and at the largest uniform, lifeCount agrees with
// poissonInv's own search, which must end even where F never exceeds u.
func TestLifetimeCountTable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	top := math.Nextafter(1, 0)
	for _, rates := range []Rates{Table1(), Table1().WithTSV(1430), Table1().BiasLarge(1000).WithTSV(1e5)} {
		s := NewSampler(stack.DefaultConfig(), rates)
		if s.lifeCDF == nil {
			t.Fatalf("Λ=%.2f: no lifetime table", s.lifeLambda)
		}
		us := []float64{0, top}
		for _, f := range s.lifeCDF {
			us = append(us, math.Nextafter(f, 0), f, math.Nextafter(f, 2))
		}
		for range 100000 {
			us = append(us, rng.Float64())
		}
		for _, u := range us {
			if u >= 1 {
				continue
			}
			if got, want := s.lifeCount(u), poissonInv(u, s.lifeLambda); got != want {
				t.Fatalf("Λ=%.2f u=%v: table count %d, search %d", s.lifeLambda, u, got, want)
			}
		}
	}
	for _, lam := range []float64{0.45, 1.85, knuthMax} {
		if k := poissonInv(top, lam); k < int(lam) {
			t.Errorf("poissonInv(1-2⁻⁵³, %.2f) = %d, below the mean", lam, k)
		}
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
