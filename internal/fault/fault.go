// Package fault defines the fault taxonomy, failure rates, and fault
// footprint algebra for stacked DRAM, following the field data of Sridharan
// & Liberty (SC 2012) scaled to 8 Gb dies exactly as Citadel's Table I does,
// plus the TSV fault modes the paper introduces for 3D stacks.
//
// A fault is a footprint — a set of affected (die, bank, row, bit-column)
// cells within one stack — paired with a granularity class, a persistence,
// and an arrival time. Protection schemes decide correctability by
// intersecting footprints, so the algebra (package-level Pattern/Region) is
// the contract between the fault model and every scheme.
package fault

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/stack"
)

// Class is the granularity class of a fault.
type Class int

const (
	// Bit is a single-bit fault.
	Bit Class = iota
	// Word is a fault confined to one aligned 64-bit word of a row.
	Word
	// Column is a column-decoder fault: one bit-column across every row of
	// one sub-array.
	Column
	// Row is a single full-row fault.
	Row
	// SubArray is a failure of one sub-array (a contiguous band of rows
	// across the full width of a bank). Together with Column faults it
	// produces the ~5200-row peak of the paper's Figure 17.
	SubArray
	// Bank is a complete single-bank failure.
	Bank
	// DataTSV is a faulty data TSV: a strided set of bit positions in every
	// line of every bank of the channel (die).
	DataTSV
	// AddrTSV is a faulty address TSV: half of the rows of every bank in
	// the channel become unreachable.
	AddrTSV
	numClasses
)

// String returns a short name for the class.
func (c Class) String() string {
	switch c {
	case Bit:
		return "bit"
	case Word:
		return "word"
	case Column:
		return "column"
	case Row:
		return "row"
	case SubArray:
		return "subarray"
	case Bank:
		return "bank"
	case DataTSV:
		return "data-tsv"
	case AddrTSV:
		return "addr-tsv"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// IsTSV reports whether the class is a TSV fault mode.
func (c Class) IsTSV() bool { return c == DataTSV || c == AddrTSV }

// LargeGranularity reports whether the class is in the large-granularity
// band (column and above, including TSV modes) — the multi-bit failure
// modes Citadel targets and the rare-event engine inflates.
func (c Class) LargeGranularity() bool { return c >= Column }

// Persistence distinguishes transient (scrubbed away once corrected) from
// permanent faults.
type Persistence int

const (
	// Transient faults disappear at the next scrub if correctable.
	Transient Persistence = iota
	// Permanent faults persist for the device lifetime unless spared.
	Permanent
)

// String returns "transient" or "permanent".
func (p Persistence) String() string {
	if p == Transient {
		return "transient"
	}
	return "permanent"
}

// Region is a fault footprint within one stack: the cartesian product of
// pattern sets over dies, banks, rows, and bit-columns within a row.
type Region struct {
	Stack int
	Die   Pattern
	Bank  Pattern
	Row   Pattern
	Col   Pattern // bit position within the row, [0, RowBytes*8)
}

// Overlaps reports whether two footprints share at least one cell.
func (r Region) Overlaps(s Region) bool {
	return r.Stack == s.Stack &&
		r.Die.Intersects(s.Die) &&
		r.Bank.Intersects(s.Bank) &&
		r.Row.Intersects(s.Row) &&
		r.Col.Intersects(s.Col)
}

// ContainsCell reports whether the footprint covers the given cell.
func (r Region) ContainsCell(stackIdx, die, bank, row, col int) bool {
	return r.Stack == stackIdx &&
		r.Die.Contains(uint32(die)) &&
		r.Bank.Contains(uint32(bank)) &&
		r.Row.Contains(uint32(row)) &&
		r.Col.Contains(uint32(col))
}

// Fault is one fault event.
type Fault struct {
	Class       Class
	Persistence Persistence
	Hours       float64 // arrival time since start of life
	Region      Region
	TSV         int // TSV index for DataTSV/AddrTSV faults
}

// String renders the fault for logs.
func (f Fault) String() string {
	return fmt.Sprintf("%s/%s@%.0fh stack=%d", f.Class, f.Persistence, f.Hours, f.Region.Stack)
}

// Rates holds failure rates in FIT (failures per 10^9 device-hours), one
// rate per (class, persistence) pair, expressed per die. TSV rates are per
// die (channel) and always permanent.
type Rates struct {
	BitTransient, BitPermanent       float64
	WordTransient, WordPermanent     float64
	ColumnTransient, ColumnPermanent float64
	RowTransient, RowPermanent       float64
	BankTransient, BankPermanent     float64
	// TSVPerDie is the total TSV FIT per die; events split between data and
	// address TSVs in proportion to their counts. The paper sweeps this from
	// 14 to 1430 FIT because field data is unavailable.
	TSVPerDie float64
	// SubArrayFraction is the portion of permanent bank-class events that
	// are sub-array failures rather than full-bank failures (drives the
	// 5200-row peak in Figure 17).
	SubArrayFraction float64
	// SubArrayRows is the number of rows in one sub-array.
	SubArrayRows int
}

// Sridharan1Gb returns the per-chip FIT rates for 1 Gb DRAM devices from
// the field study the paper builds on.
func Sridharan1Gb() Rates {
	return Rates{
		BitTransient: 14.2, BitPermanent: 18.6,
		WordTransient: 1.4, WordPermanent: 0.3,
		ColumnTransient: 1.4, ColumnPermanent: 5.6,
		RowTransient: 0.2, RowPermanent: 8.2,
		BankTransient: 0.8, BankPermanent: 10.0,
		SubArrayFraction: 0.21,
		SubArrayRows:     5200,
	}
}

// ScaleTo8Gb applies the paper's 1 Gb → 8 Gb scaling rules (§III-A): bit and
// word rates scale with capacity (8x), row rates with the number of rows
// (4x), column rates with column-decoder size (1.9x), and bank rates with
// the number of sub-arrays (8x).
func ScaleTo8Gb(r Rates) Rates {
	out := r
	out.BitTransient *= 8
	out.BitPermanent *= 8
	out.WordTransient *= 8
	out.WordPermanent *= 8
	out.ColumnTransient *= 1.9
	out.ColumnPermanent *= 1.9
	out.RowTransient *= 4
	out.RowPermanent *= 4
	out.BankTransient *= 8
	out.BankPermanent *= 8
	return out
}

// ScalePerDoubling extrapolates the paper's 1 Gb -> 8 Gb scaling rules
// (§III-A) to further density doublings: bit/word/bank rates scale with
// capacity (2x per doubling), row rates with the row count (4x per three
// doublings, i.e. 4^(1/3) each), and column rates with decoder size
// (1.9^(1/3) each). Used for the density-sensitivity ablation: the paper's
// motivation is that stacked DRAM will keep densifying.
func ScalePerDoubling(r Rates, doublings int) Rates {
	out := r
	capF := math.Pow(2, float64(doublings))
	rowF := math.Pow(4, float64(doublings)/3)
	colF := math.Pow(1.9, float64(doublings)/3)
	out.BitTransient *= capF
	out.BitPermanent *= capF
	out.WordTransient *= capF
	out.WordPermanent *= capF
	out.BankTransient *= capF
	out.BankPermanent *= capF
	out.RowTransient *= rowF
	out.RowPermanent *= rowF
	out.ColumnTransient *= colF
	out.ColumnPermanent *= colF
	return out
}

// Table1 returns the paper's Table I rates for 8 Gb dies with no TSV
// faults; set TSVPerDie for the sweep configurations.
func Table1() Rates {
	return Rates{
		BitTransient: 113.6, BitPermanent: 148.8,
		WordTransient: 11.2, WordPermanent: 2.4,
		ColumnTransient: 2.6, ColumnPermanent: 10.5,
		RowTransient: 0.8, RowPermanent: 32.8,
		BankTransient: 6.4, BankPermanent: 80,
		SubArrayFraction: 0.21,
		SubArrayRows:     5200,
	}
}

// WithTSV returns a copy of r with the given per-die TSV FIT rate.
func (r Rates) WithTSV(fit float64) Rates {
	r.TSVPerDie = fit
	return r
}

// BiasLarge returns a copy of r with every large-granularity rate —
// column, row, the bank/sub-array budget, and TSV — multiplied by
// factor. It is the proposal distribution of the importance-sampling
// engine (internal/rare): inflating a class's Poisson rate λ to Bλ
// leaves placement and arrival-time distributions untouched, so the
// per-trial likelihood ratio reduces to exp((B−1)Λ)·B^(−n) with Λ the
// total large-granularity event expectation (LargeLambda) and n the
// number of large-granularity events drawn.
func (r Rates) BiasLarge(factor float64) Rates {
	r.ColumnTransient *= factor
	r.ColumnPermanent *= factor
	r.RowTransient *= factor
	r.RowPermanent *= factor
	// SubArray and Bank classes both derive from the bank budget via
	// SubArrayFraction, so scaling the budget scales each class rate by
	// exactly factor.
	r.BankTransient *= factor
	r.BankPermanent *= factor
	r.TSVPerDie *= factor
	return r
}

// LargeLambda returns the expected number of large-granularity fault
// events over hours for the geometry — the Λ in the rare-event
// likelihood ratio. Class events scale with all fault-bearing dies
// (data + ECC); TSV events, as in Sampler, with data dies only.
func (r Rates) LargeLambda(cfg stack.Config, hours float64) float64 {
	nDies := float64(cfg.Stacks * (cfg.DataDies + cfg.ECCDies))
	var perDie float64
	for c := Column; c <= Bank; c++ {
		perDie += r.classRate(c, Transient) + r.classRate(c, Permanent)
	}
	lam := perDie * 1e-9 * hours * nDies
	lam += r.TSVPerDie * 1e-9 * hours * float64(cfg.Stacks*cfg.DataDies)
	return lam
}

// TotalPerDie returns the sum of all per-die FIT rates, including TSV.
func (r Rates) TotalPerDie() float64 {
	return r.BitTransient + r.BitPermanent +
		r.WordTransient + r.WordPermanent +
		r.ColumnTransient + r.ColumnPermanent +
		r.RowTransient + r.RowPermanent +
		r.BankTransient + r.BankPermanent +
		r.TSVPerDie
}

// HoursPerYear is the conversion used throughout (365.25-day years).
const HoursPerYear = 24 * 365.25

// LifetimeHours is the paper's seven-year evaluation lifetime.
const LifetimeHours = 7 * HoursPerYear

// LifetimeCap is the capacity the trial kernel builds its per-worker fault
// buffers and evaluator scratch with: more faults than a lifetime at field
// rates holds (Table I at 1430 TSV FIT: at most 12 in 2M trials). A worker
// then allocates when it is built, not on whichever trials first grow its
// buffers, so a campaign's allocation count does not depend on how its
// trials fell to the workers.
const LifetimeCap = 16

// classRate returns the FIT rate for a (class, persistence) pair. SubArray
// and Bank share the bank-class budget via SubArrayFraction.
func (r Rates) classRate(c Class, p Persistence) float64 {
	switch c {
	case Bit:
		if p == Transient {
			return r.BitTransient
		}
		return r.BitPermanent
	case Word:
		if p == Transient {
			return r.WordTransient
		}
		return r.WordPermanent
	case Column:
		if p == Transient {
			return r.ColumnTransient
		}
		return r.ColumnPermanent
	case Row:
		if p == Transient {
			return r.RowTransient
		}
		return r.RowPermanent
	case SubArray:
		if p == Transient {
			return r.BankTransient * r.SubArrayFraction
		}
		return r.BankPermanent * r.SubArrayFraction
	case Bank:
		if p == Transient {
			return r.BankTransient * (1 - r.SubArrayFraction)
		}
		return r.BankPermanent * (1 - r.SubArrayFraction)
	case DataTSV, AddrTSV:
		// Handled jointly: TSV events are always permanent and split by
		// TSV population; see Sampler.
		return 0
	default:
		return 0
	}
}

// Sampler draws fault lifetimes for a whole memory system. It is
// immutable after construction, so one sampler may serve many goroutines.
//
// Its (class, persistence) streams and the two TSV streams are
// independent Poisson processes, so together they are one Poisson process
// of the summed rate whose events each belong to stream k with
// probability λₖ/Λ. A window therefore costs one count draw plus one
// label draw per event, however many streams there are.
type Sampler struct {
	cfg   stack.Config
	rates Rates
	// dies counts fault-bearing dies per stack: data dies plus ECC dies
	// (the metadata die fails like any other die).
	diesPerStack int
	// streams[:nStreams] lists the streams with a positive rate — the
	// (class, persistence) pairs and the data-TSV and address-TSV
	// streams — heaviest first. A fixed array keeps the streams in the
	// sampler's one allocation.
	streams  [2*(Bank-Bit+1) + 2]stream
	nStreams int
	// weight is Σ rate·nDies over the streams; lifeLambda is the lifetime
	// window's mean event count and lifeCDF its Poisson CDF, F(0), F(1), …
	// as poissonInv computes them, up to where F stops growing.
	weight     float64
	lifeLambda float64
	lifeCDF    []float64
	// lifeBuf backs lifeCDF when it fits: Table-I lifetimes need 14
	// entries and 1430-FIT ones 23, so at such rates the sampler stays
	// one allocation.
	lifeBuf [32]float64
}

// stream is one Poisson event stream of a Sampler. cum is the running
// sum of rate·nDies over the streams up to and including this one.
type stream struct {
	class       Class
	persistence Persistence
	cum         float64
}

// NewSampler builds a sampler for the given geometry and rates.
func NewSampler(cfg stack.Config, rates Rates) *Sampler {
	s := &Sampler{cfg: cfg, rates: rates, diesPerStack: cfg.DataDies + cfg.ECCDies}
	// add lists a stream with its weight in cum; the loop below sorts
	// and accumulates.
	add := func(c Class, p Persistence, rate, nDies float64) {
		if rate <= 0 {
			return
		}
		s.streams[s.nStreams] = stream{class: c, persistence: p, cum: rate * nDies}
		s.nStreams++
	}
	nDies := float64(cfg.Stacks * s.diesPerStack)
	for c := Bit; c <= Bank; c++ {
		for _, p := range [...]Persistence{Transient, Permanent} {
			add(c, p, rates.classRate(c, p), nDies)
		}
	}
	// TSV events scale with data dies only and split between data and
	// address TSVs in proportion to their counts.
	if tsvs := float64(cfg.DataTSVs + cfg.AddrTSVs); tsvs > 0 {
		dataDies := float64(cfg.Stacks * cfg.DataDies)
		add(DataTSV, Permanent, rates.TSVPerDie*float64(cfg.DataTSVs)/tsvs, dataDies)
		add(AddrTSV, Permanent, rates.TSVPerDie*float64(cfg.AddrTSVs)/tsvs, dataDies)
	}
	// Heaviest stream first, ties in class order, so the label scan
	// usually stops at its first entries.
	streams := s.streams[:s.nStreams]
	for i := 1; i < len(streams); i++ {
		for j := i; j > 0 && streams[j].cum > streams[j-1].cum; j-- {
			streams[j], streams[j-1] = streams[j-1], streams[j]
		}
	}
	for i := range streams {
		s.weight += streams[i].cum
		streams[i].cum = s.weight
	}
	s.lifeLambda = s.lambda(LifetimeHours)
	if s.lifeLambda <= knuthMax {
		s.lifeCDF = appendPoissonCDF(s.lifeBuf[:0], s.lifeLambda)
	}
	return s
}

// lambda is the expected event count over span hours.
func (s *Sampler) lambda(span float64) float64 { return s.weight * 1e-9 * span }

// count draws the number of events over span hours.
func (s *Sampler) count(rng *rand.Rand, span float64) int {
	if span == LifetimeHours && s.lifeCDF != nil {
		return s.lifeCount(rng.Float64())
	}
	return poisson(rng, s.lambda(span))
}

// lifeCount is poissonInv(u, lifeLambda) by a search of the precomputed
// CDF, which holds exactly the values poissonInv compares against. A
// uniform past the table's last entry, within rounding of 1, takes
// poissonInv's own search to its end.
func (s *Sampler) lifeCount(u float64) int {
	for k, f := range s.lifeCDF {
		if u < f {
			return k
		}
	}
	return poissonInv(u, s.lifeLambda)
}

// label picks the stream of one event: the first whose cumulative weight
// exceeds a uniform share of the total. The scan stops at the last
// stream whatever the rounding of u·weight, and every listed stream has
// positive weight, so a zero-rate stream is never drawn.
func (s *Sampler) label(rng *rand.Rand) *stream {
	u := rng.Float64() * s.weight
	i := 0
	for i < s.nStreams-1 && u >= s.streams[i].cum {
		i++
	}
	return &s.streams[i]
}

// Rates returns the sampler's rates.
func (s *Sampler) Rates() Rates { return s.rates }

// Config returns the sampler's geometry.
func (s *Sampler) Config() stack.Config { return s.cfg }

// knuthMax bounds the mean of one inversion step so its starting pmf
// e^{-λ} stays far from float64 underflow. Poisson counts add, so a
// larger mean is drawn as a sum of such steps.
const knuthMax = 256

// poisson draws a Poisson(lambda) variate by inversion, one uniform per
// step of mean at most knuthMax.
func poisson(rng *rand.Rand, lambda float64) int {
	n := 0
	for ; lambda > knuthMax; lambda -= knuthMax {
		n += poissonInv(rng.Float64(), knuthMax)
	}
	if lambda <= 0 {
		return n
	}
	return n + poissonInv(rng.Float64(), lambda)
}

// poissonInv inverts the Poisson(lambda) CDF at u in [0, 1): the smallest
// k with u < F(k), found by summing the pmf from e^{-lambda} with the
// recurrence p(k) = p(k-1)·lambda/k. The search stops when the pmf term
// underflows to zero, so a u that F never exceeds in float64 still ends.
func poissonInv(u, lambda float64) int {
	p := math.Exp(-lambda)
	f := p
	k := 0
	for u >= f && p > 0 {
		k++
		p *= lambda / float64(k)
		f += p
	}
	return k
}

// appendPoissonCDF appends F(0), F(1), … for Poisson(lambda) to cdf,
// computed with poissonInv's recurrence so each entry is bit-identical to
// the value poissonInv compares against, up to where adding the next
// term leaves F unchanged.
func appendPoissonCDF(cdf []float64, lambda float64) []float64 {
	p := math.Exp(-lambda)
	f := p
	cdf = append(cdf, f)
	for k := 1; ; k++ {
		p *= lambda / float64(k)
		if f+p == f {
			return cdf
		}
		f += p
		cdf = append(cdf, f)
	}
}

// SampleLifetime draws all fault events for the system over the given
// number of hours, sorted by arrival time.
func (s *Sampler) SampleLifetime(rng *rand.Rand, hours float64) []Fault {
	return s.AppendLifetime(rng, hours, nil)
}

// AppendLifetime is SampleLifetime appending into dst (typically a reused
// buffer truncated to length zero), so the Monte Carlo trial loop can run
// without a per-trial allocation. The sequence of RNG draws is identical to
// SampleLifetime's, so fixed-seed runs produce the same faults either way.
// The appended portion is sorted by arrival time.
func (s *Sampler) AppendLifetime(rng *rand.Rand, hours float64, dst []Fault) []Fault {
	return s.AppendWindow(rng, 0, hours, dst)
}

// AppendWindow draws all fault events arriving in the window
// (start, start+span] and appends them to dst, sorted by arrival time.
// Poisson arrivals are memoryless, so conditioning on any trajectory up
// to start, the suffix of the lifetime is distributed exactly as a fresh
// window draw — the branching step of multilevel splitting
// (internal/rare). Per window it draws the event count, then per event
// its stream, its placement and its arrival hour.
func (s *Sampler) AppendWindow(rng *rand.Rand, start, span float64, dst []Fault) []Fault {
	if s.nStreams == 0 {
		return dst
	}
	base := len(dst)
	faults := dst
	src := draws{rng: rng}
	for n := s.count(rng, span); n > 0; n-- {
		d := s.label(rng)
		faults = append(faults, Fault{})
		f := &faults[len(faults)-1]
		s.place(&src, f, d.class, d.persistence)
		f.Hours = start + rng.Float64()*span
	}
	sortByTime(faults[base:])
	return faults
}

// draws hands out exactly uniform bounded integers from an rng, two per
// rng.Uint64: Lemire's multiply-shift on each 32-bit half, with
// rejection of the few products that would bias the result. It lives on
// the caller's stack for one window, so the sampler stays immutable.
type draws struct {
	rng  *rand.Rand
	bits uint64
	half bool // bits holds an unused upper half
}

// next32 returns the next unused 32-bit half.
func (d *draws) next32() uint32 {
	if d.half {
		d.half = false
		return uint32(d.bits >> 32)
	}
	d.bits = d.rng.Uint64()
	d.half = true
	return uint32(d.bits)
}

// intn returns a uniform integer in [0, n) for 0 < n < 2³².
func (d *draws) intn(n uint32) uint32 {
	m := uint64(d.next32()) * uint64(n)
	if uint32(m) < n {
		// Products whose low word falls below 2³² mod n are the surplus
		// that would favour some results; redraw them.
		for t := -n % n; uint32(m) < t; {
			m = uint64(d.next32()) * uint64(n)
		}
	}
	return uint32(m >> 32)
}

// place chooses a uniformly random location for a fault of class c and
// builds its footprint into f, a zero Fault. It draws only the
// coordinates the class keeps: one bounded integer for (stack, die,
// bank) — (stack, die) for the channel-wide TSV classes — then the row,
// column, word, sub-array or TSV coordinates of the class.
func (s *Sampler) place(src *draws, f *Fault, c Class, p Persistence) {
	cfg := &s.cfg
	f.Class, f.Persistence = c, p
	reg := &f.Region
	if c.IsTSV() {
		unit := int(src.intn(uint32(cfg.Stacks * s.diesPerStack)))
		reg.Stack = unit / s.diesPerStack
		reg.Die = ExactPattern(uint32(unit % s.diesPerStack)) // may land on the metadata die
		reg.Bank = AllPattern()
	} else {
		perStack := s.diesPerStack * cfg.BanksPerDie
		unit := int(src.intn(uint32(cfg.Stacks * perStack)))
		reg.Stack = unit / perStack
		reg.Die = ExactPattern(uint32(unit % perStack / cfg.BanksPerDie))
		reg.Bank = ExactPattern(uint32(unit % cfg.BanksPerDie))
	}
	rows, rowBits := uint32(cfg.RowsPerBank), uint32(cfg.RowBytes*8)
	reg.Row, reg.Col = AllPattern(), AllPattern()
	switch c {
	case Bit:
		reg.Row = ExactPattern(src.intn(rows))
		reg.Col = ExactPattern(src.intn(rowBits))
	case Word:
		reg.Row = ExactPattern(src.intn(rows))
		reg.Col = MaskPattern(^uint32(63), src.intn(rowBits/64)*64)
	case Column:
		// One bit-column across all rows of one sub-array.
		reg.Col = ExactPattern(src.intn(rowBits))
		reg.Row = s.subArrayRows(src)
	case Row:
		reg.Row = ExactPattern(src.intn(rows))
	case SubArray:
		reg.Row = s.subArrayRows(src)
	case Bank:
		// The whole bank.
	case DataTSV:
		f.TSV = int(src.intn(uint32(cfg.DataTSVs)))
		// Bits q of each line with q mod DataTSVs == t; since lines tile the
		// row and line bits are a multiple of DataTSVs, the row-level bit
		// position obeys the same congruence.
		reg.Col = MaskPattern(uint32(cfg.DataTSVs-1), uint32(f.TSV))
	case AddrTSV:
		f.TSV = int(src.intn(uint32(cfg.AddrTSVs)))
		// A broken row-address bit makes one half-space unreachable: one
		// draw picks the bit k (kv>>1) and which half (kv&1).
		kv := src.intn(uint32(2 * bitsFor(cfg.RowsPerBank)))
		k := kv >> 1
		reg.Row = MaskPattern(1<<k, (kv&1)<<k)
	}
}

// subArrayRows returns the row pattern of a random sub-array.
func (s *Sampler) subArrayRows(src *draws) Pattern {
	n := s.rates.SubArrayRows
	if n <= 0 || n >= s.cfg.RowsPerBank {
		return AllPattern()
	}
	count := s.cfg.RowsPerBank / n
	start := src.intn(uint32(count)) * uint32(n)
	return RangePattern(start, start+uint32(n))
}

// bitsFor returns the number of address bits needed for n values.
func bitsFor(n int) int {
	b := 0
	for 1<<uint(b) < n {
		b++
	}
	return b
}

// sortByTime sorts faults by arrival hour (insertion sort; fault lists are
// short — a handful of events per lifetime).
func sortByTime(fs []Fault) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].Hours < fs[j-1].Hours; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// RowsNeedingSparing returns how many rows of one bank the footprint
// covers, assuming the footprint touches that bank (Figure 17's metric).
func (f Fault) RowsNeedingSparing(cfg stack.Config) int {
	return f.Region.Row.CountBelow(uint32(cfg.RowsPerBank))
}
