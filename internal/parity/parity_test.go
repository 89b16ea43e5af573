package parity

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/stack"
)

// tinyConfig is a geometry small enough for exhaustive cell enumeration.
func tinyConfig() stack.Config {
	return stack.Config{
		Stacks:      1,
		DataDies:    4,
		ECCDies:     0,
		BanksPerDie: 4,
		RowsPerBank: 8,
		RowBytes:    2, // 16 bit-columns
		LineBytes:   2,
		DataTSVs:    8,
		AddrTSVs:    3,
		BurstLength: 2,
	}
}

// enumerateCells lists all faulty cells of a region in the tiny geometry.
type cell struct{ die, bank, row, col int }

func enumerateCells(cfg stack.Config, r fault.Region) []cell {
	var out []cell
	for d := 0; d < cfg.DataDies; d++ {
		for b := 0; b < cfg.BanksPerDie; b++ {
			for rr := 0; rr < cfg.RowsPerBank; rr++ {
				for c := 0; c < cfg.RowBytes*8; c++ {
					if r.ContainsCell(0, d, b, rr, c) {
						out = append(out, cell{d, b, rr, c})
					}
				}
			}
		}
	}
	return out
}

// bruteLost is an independent cell-enumerating implementation of lost().
func bruteLost(cfg stack.Config, dims Dims, a fault.Region, live []fault.Region) bool {
	faultyAt := func(d, b, r, c int, exclude cell) bool {
		for _, reg := range live {
			if reg.ContainsCell(0, d, b, r, c) && (cell{d, b, r, c} != exclude) {
				return true
			}
		}
		return false
	}
	for _, x := range enumerateCells(cfg, a) {
		lostEverywhere := true
		for _, dim := range dims.List() {
			blocked := false
			switch dim {
			case Dim1:
				for d := 0; d < cfg.DataDies && !blocked; d++ {
					for b := 0; b < cfg.BanksPerDie && !blocked; b++ {
						blocked = faultyAt(d, b, x.row, x.col, x)
					}
				}
			case Dim2:
				for b := 0; b < cfg.BanksPerDie && !blocked; b++ {
					for r := 0; r < cfg.RowsPerBank && !blocked; r++ {
						blocked = faultyAt(x.die, b, r, x.col, x)
					}
				}
			case Dim3:
				for d := 0; d < cfg.DataDies && !blocked; d++ {
					for r := 0; r < cfg.RowsPerBank && !blocked; r++ {
						blocked = faultyAt(d, x.bank, r, x.col, x)
					}
				}
			}
			if !blocked {
				lostEverywhere = false
				break
			}
		}
		if lostEverywhere {
			return true
		}
	}
	return false
}

// bruteUncorrectable mirrors Uncorrectable's peeling using bruteLost.
func bruteUncorrectable(cfg stack.Config, dims Dims, regions []fault.Region) bool {
	live := append([]fault.Region(nil), regions...)
	for {
		progressed := false
		for i := 0; i < len(live); i++ {
			if !bruteLost(cfg, dims, live[i], live) {
				live = append(live[:i], live[i+1:]...)
				progressed = true
				i--
			}
		}
		if !progressed {
			return len(live) > 0
		}
		if len(live) == 0 {
			return false
		}
	}
}

// randomRegion draws a random product footprint in the tiny geometry.
func randomRegion(rng *rand.Rand, cfg stack.Config) fault.Region {
	pat := func(n int) fault.Pattern {
		switch rng.Intn(4) {
		case 0:
			return fault.AllPattern()
		case 1:
			return fault.ExactPattern(uint32(rng.Intn(n)))
		case 2:
			mask := uint32(rng.Intn(n))
			return fault.MaskPattern(mask, uint32(rng.Intn(n)))
		default:
			lo := uint32(rng.Intn(n))
			hi := lo + 1 + uint32(rng.Intn(n-int(lo)))
			return fault.RangePattern(lo, hi)
		}
	}
	return fault.Region{
		Stack: 0,
		Die:   pat(cfg.DataDies),
		Bank:  pat(cfg.BanksPerDie),
		Row:   pat(cfg.RowsPerBank),
		Col:   pat(cfg.RowBytes * 8),
	}
}

func TestUncorrectableMatchesBruteForce(t *testing.T) {
	cfg := tinyConfig()
	rng := rand.New(rand.NewSource(21))
	for _, dims := range []Dims{OneDP, TwoDP, ThreeDP} {
		an := NewAnalyzer(cfg, dims)
		for trial := 0; trial < 400; trial++ {
			n := 1 + rng.Intn(3)
			regions := make([]fault.Region, 0, n)
			for i := 0; i < n; i++ {
				r := randomRegion(rng, cfg)
				if len(enumerateCells(cfg, r)) == 0 {
					continue // empty footprints cannot occur in practice
				}
				regions = append(regions, r)
			}
			if len(regions) == 0 {
				continue
			}
			want := bruteUncorrectable(cfg, dims, regions)
			got := an.Uncorrectable(regions)
			if got != want {
				t.Fatalf("%v trial %d: Uncorrectable = %v, brute = %v\nregions: %+v",
					dims, trial, got, want, regions)
			}
		}
	}
}

func TestLostMatchesBruteForce(t *testing.T) {
	cfg := tinyConfig()
	rng := rand.New(rand.NewSource(22))
	for _, dims := range []Dims{OneDP, TwoDP, ThreeDP} {
		an := NewAnalyzer(cfg, dims)
		for trial := 0; trial < 400; trial++ {
			a := randomRegion(rng, cfg)
			if len(enumerateCells(cfg, a)) == 0 {
				continue
			}
			b := randomRegion(rng, cfg)
			live := []fault.Region{a}
			if len(enumerateCells(cfg, b)) > 0 {
				live = append(live, b)
			}
			want := bruteLost(cfg, dims, a, live)
			got := an.lost(a, live)
			if got != want {
				t.Fatalf("%v trial %d: lost = %v, brute = %v\na: %+v\nlive: %+v",
					dims, trial, got, want, a, live)
			}
		}
	}
}

// fullConfig checks paper-level behaviors on the real geometry.
func fullRegion(class fault.Class, die, bank, row, col uint32) fault.Region {
	r := fault.Region{
		Stack: 0,
		Die:   fault.ExactPattern(die),
		Bank:  fault.ExactPattern(bank),
		Row:   fault.ExactPattern(row),
		Col:   fault.ExactPattern(col),
	}
	switch class {
	case fault.Row:
		r.Col = fault.AllPattern()
	case fault.Bank:
		r.Row = fault.AllPattern()
		r.Col = fault.AllPattern()
	case fault.Column:
		r.Row = fault.AllPattern()
	case fault.DataTSV:
		r.Bank = fault.AllPattern()
		r.Row = fault.AllPattern()
		r.Col = fault.MaskPattern(255, col)
	case fault.AddrTSV:
		r.Bank = fault.AllPattern()
		r.Row = fault.MaskPattern(1<<10, 1<<10)
		r.Col = fault.AllPattern()
	}
	return r
}

func TestSingleFaultsCorrectableUnder3DP(t *testing.T) {
	cfg := stack.DefaultConfig()
	an := NewAnalyzer(cfg, ThreeDP)
	cases := []struct {
		name string
		r    fault.Region
	}{
		{"bit", fullRegion(fault.Bit, 1, 2, 100, 5)},
		{"row", fullRegion(fault.Row, 1, 2, 100, 0)},
		{"column", fullRegion(fault.Column, 1, 2, 0, 5)},
		{"bank", fullRegion(fault.Bank, 1, 2, 0, 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if an.Uncorrectable([]fault.Region{tc.r}) {
				t.Errorf("single %s fault uncorrectable under 3DP", tc.name)
			}
		})
	}
}

// TestTSVFaultsDefeat3DP captures the paper's motivation for TSV-SWAP: a
// channel-wide TSV fault corrupts cells in every bank of the die at common
// column positions, self-conflicting in all three parity dimensions, so 3DP
// alone cannot correct it. TSV-SWAP must remove such faults first.
func TestTSVFaultsDefeat3DP(t *testing.T) {
	cfg := stack.DefaultConfig()
	an := NewAnalyzer(cfg, ThreeDP)
	dtsv := fullRegion(fault.DataTSV, 1, 0, 0, 7)
	atsv := fullRegion(fault.AddrTSV, 1, 0, 0, 0)
	if !an.Uncorrectable([]fault.Region{dtsv}) {
		t.Error("unrepaired data-TSV fault correctable under 3DP (should fail)")
	}
	if !an.Uncorrectable([]fault.Region{atsv}) {
		t.Error("unrepaired addr-TSV fault correctable under 3DP (should fail)")
	}
}

func TestBankPlusBitUnder1DPFails(t *testing.T) {
	// Paper §VI-A: a 1DP scheme loses data when a bit fault joins a bank
	// fault (the parity group for the bit's (row, col) has two members).
	cfg := stack.DefaultConfig()
	bank := fullRegion(fault.Bank, 1, 2, 0, 0)
	bit := fullRegion(fault.Bit, 3, 4, 100, 5)
	an1 := NewAnalyzer(cfg, OneDP)
	if !an1.Uncorrectable([]fault.Region{bank, bit}) {
		t.Error("1DP corrected bank+bit (should fail)")
	}
	// 2DP peels the bit via Dimension 2, then fixes the bank via Dim 1.
	an2 := NewAnalyzer(cfg, TwoDP)
	if an2.Uncorrectable([]fault.Region{bank, bit}) {
		t.Error("2DP failed bank+bit (should correct)")
	}
}

func TestTwoBankFaultsSameRowcolFail3DP(t *testing.T) {
	cfg := stack.DefaultConfig()
	an := NewAnalyzer(cfg, ThreeDP)
	b1 := fullRegion(fault.Bank, 1, 2, 0, 0)
	b2 := fullRegion(fault.Bank, 3, 4, 0, 0)
	// Two whole-bank faults collide in every dimension-1 group and
	// self-conflict in dimensions 2 and 3.
	if !an.Uncorrectable([]fault.Region{b1, b2}) {
		t.Error("two concurrent bank faults corrected by 3DP (should fail)")
	}
}

func TestTwoRowFaultsDifferentDieBankCorrectable(t *testing.T) {
	cfg := stack.DefaultConfig()
	an := NewAnalyzer(cfg, ThreeDP)
	r1 := fullRegion(fault.Row, 1, 2, 100, 0)
	r2 := fullRegion(fault.Row, 3, 4, 100, 0) // same row index!
	// They collide in Dimension 1 (same row, same cols) but each is the
	// only fault in its die (Dim 2) — recoverable.
	if an.Uncorrectable([]fault.Region{r1, r2}) {
		t.Error("two row faults in different dies uncorrectable (should correct)")
	}
}

func TestBankPlusRowInSameDie(t *testing.T) {
	cfg := stack.DefaultConfig()
	an := NewAnalyzer(cfg, ThreeDP)
	bank := fullRegion(fault.Bank, 1, 2, 0, 0)
	row := fullRegion(fault.Row, 1, 4, 100, 0) // same die, different bank
	// Row fault: Dim2 blocked by the bank fault (same die); Dim3 clean
	// (different bank index) -> peel row, then bank via Dim1.
	if an.Uncorrectable([]fault.Region{bank, row}) {
		t.Error("bank + row in same die uncorrectable under 3DP")
	}
	// Under 2DP the row fault cannot use Dim3: Dim1 is blocked by the bank
	// fault (same row index exists in the bank fault), Dim2 blocked too.
	an2 := NewAnalyzer(cfg, TwoDP)
	if !an2.Uncorrectable([]fault.Region{bank, row}) {
		t.Error("bank + row in same die correctable under 2DP (should fail)")
	}
}

func TestDimsStringAndList(t *testing.T) {
	if OneDP.String() != "1DP" || TwoDP.String() != "2DP" || ThreeDP.String() != "3DP" {
		t.Error("Dims.String wrong")
	}
	if len(ThreeDP.List()) != 3 || len(OneDP.List()) != 1 {
		t.Error("Dims.List wrong")
	}
}

func TestEmptyFaultSetCorrectable(t *testing.T) {
	an := NewAnalyzer(stack.DefaultConfig(), ThreeDP)
	if an.Uncorrectable(nil) {
		t.Error("empty fault set reported uncorrectable")
	}
}

func TestCellLostOracleAgreesOnSamples(t *testing.T) {
	cfg := tinyConfig()
	rng := rand.New(rand.NewSource(23))
	an := NewAnalyzer(cfg, ThreeDP)
	for trial := 0; trial < 100; trial++ {
		a := randomRegion(rng, cfg)
		cells := enumerateCells(cfg, a)
		if len(cells) == 0 {
			continue
		}
		live := []fault.Region{a, randomRegion(rng, cfg)}
		anyLost := false
		for _, x := range cells {
			if an.CellLost(live, 0, x.die, x.bank, x.row, x.col) {
				anyLost = true
				break
			}
		}
		if got := bruteLost(cfg, ThreeDP, a, live); got != anyLost {
			t.Fatalf("trial %d: CellLost disagreement: oracle=%v brute=%v", trial, anyLost, got)
		}
	}
}

// TestUncorrectableMonotone checks the key safety invariant of the
// correction algebra: adding a fault to a live set can never turn an
// uncorrectable state correctable.
func TestUncorrectableMonotone(t *testing.T) {
	cfg := tinyConfig()
	rng := rand.New(rand.NewSource(77))
	an := NewAnalyzer(cfg, ThreeDP)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(3)
		regions := make([]fault.Region, 0, n)
		for i := 0; i < n; i++ {
			r := randomRegion(rng, cfg)
			if len(enumerateCells(cfg, r)) > 0 {
				regions = append(regions, r)
			}
		}
		if len(regions) < 2 {
			continue
		}
		if an.Uncorrectable(regions[:len(regions)-1]) && !an.Uncorrectable(regions) {
			t.Fatalf("trial %d: adding a fault made the set correctable:\n%+v", trial, regions)
		}
	}
}

// TestFewerDimensionsNeverBetter checks that disabling parity dimensions
// can only hurt: any set correctable under kDP is correctable under
// (k+1)DP.
func TestFewerDimensionsNeverBetter(t *testing.T) {
	cfg := tinyConfig()
	rng := rand.New(rand.NewSource(78))
	a1 := NewAnalyzer(cfg, OneDP)
	a2 := NewAnalyzer(cfg, TwoDP)
	a3 := NewAnalyzer(cfg, ThreeDP)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(2)
		regions := make([]fault.Region, 0, n)
		for i := 0; i < n; i++ {
			r := randomRegion(rng, cfg)
			if len(enumerateCells(cfg, r)) > 0 {
				regions = append(regions, r)
			}
		}
		if len(regions) == 0 {
			continue
		}
		u1, u2, u3 := a1.Uncorrectable(regions), a2.Uncorrectable(regions), a3.Uncorrectable(regions)
		if !u1 && u2 {
			t.Fatalf("trial %d: 1DP corrects what 2DP cannot: %+v", trial, regions)
		}
		if !u2 && u3 {
			t.Fatalf("trial %d: 2DP corrects what 3DP cannot: %+v", trial, regions)
		}
	}
}

func TestIntersectPatternEmptinessMatchesEnumeration(t *testing.T) {
	// intersectPattern's emptiness verdict, and the members of the pattern
	// it returns, against enumeration over two windows of the index space:
	// the bottom, with bounded ranges, and the top, where Hi == 0 (no upper
	// bound) takes the closed-form test on the largest member.
	const span = 2048
	rng := rand.New(rand.NewSource(11))
	masks := []uint32{0, ^uint32(0), 255, 1 << 3, 1 << 10, ^uint32(63)}
	for _, base := range []uint64{0, 1<<32 - span} {
		end := base + span
		draw := func() fault.Pattern {
			mask := masks[rng.Intn(len(masks))]
			if rng.Intn(4) == 0 {
				mask = rng.Uint32()
			}
			p := fault.Pattern{Mask: mask, Val: uint32(base+uint64(rng.Intn(span))) & mask}
			p.Lo = uint32(base + uint64(rng.Intn(span)))
			if base == 0 {
				p.Hi = uint32(1 + rng.Intn(span))
			} else if rng.Intn(2) == 0 {
				p.Hi = uint32(base + uint64(rng.Intn(span)))
			}
			if base > 0 && rng.Intn(4) == 0 {
				p.Lo = ^uint32(0)
			}
			return p
		}
		for trial := 0; trial < 3000; trial++ {
			p, q := draw(), draw()
			got, ok := intersectPattern(p, q)
			nonEmpty := false
			for x := base; x < end; x++ {
				both := p.Contains(uint32(x)) && q.Contains(uint32(x))
				nonEmpty = nonEmpty || both
				if ok && got.Contains(uint32(x)) != both {
					t.Fatalf("intersectPattern(%+v, %+v) = %+v disagrees at %#x", p, q, got, x)
				}
			}
			if ok != nonEmpty {
				t.Fatalf("intersectPattern(%+v, %+v) non-empty = %v, enumeration %v", p, q, ok, nonEmpty)
			}
		}
	}
}
