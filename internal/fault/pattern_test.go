package fault

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refPattern checks membership directly from the definition.
func refPattern(p Pattern, x uint32) bool {
	if x&p.Mask != p.Val {
		return false
	}
	if x < p.Lo {
		return false
	}
	if p.Hi != 0 && x >= p.Hi {
		return false
	}
	return true
}

// smallPattern generates patterns over a small domain so brute force works.
func smallPattern(rng *rand.Rand) Pattern {
	var p Pattern
	switch rng.Intn(5) {
	case 0:
		p = AllPattern()
	case 1:
		p = ExactPattern(uint32(rng.Intn(1024)))
	case 2:
		mask := uint32(rng.Intn(1024))
		p = MaskPattern(mask, uint32(rng.Intn(1024)))
	case 3:
		lo := uint32(rng.Intn(1024))
		p = RangePattern(lo, lo+uint32(rng.Intn(1024))+1)
	case 4:
		mask := uint32(rng.Intn(1024))
		lo := uint32(rng.Intn(1024))
		p = Pattern{Mask: mask, Val: uint32(rng.Intn(1024)) & mask, Lo: lo, Hi: lo + uint32(rng.Intn(512)) + 1}
	}
	return p
}

func TestPatternContainsMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		p := smallPattern(rng)
		for x := uint32(0); x < 2048; x++ {
			if p.Contains(x) != refPattern(p, x) {
				t.Fatalf("pattern %+v disagrees at %d", p, x)
			}
		}
	}
}

func TestIntersectsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		p := smallPattern(rng)
		q := smallPattern(rng)
		brute := false
		for x := uint32(0); x < 4096; x++ {
			if p.Contains(x) && q.Contains(x) {
				brute = true
				break
			}
		}
		// Constrain to the small domain: p and q only have members below
		// 4096 when masks/ranges are small, which smallPattern guarantees
		// except for pure mask patterns that extend upward. Add a range cap
		// so brute force is exact.
		pc, qc := p, q
		if pc.Hi == 0 || pc.Hi > 4096 {
			pc.Hi = 4096
		}
		if qc.Hi == 0 || qc.Hi > 4096 {
			qc.Hi = 4096
		}
		if got := pc.Intersects(qc); got != brute {
			t.Fatalf("Intersects(%+v, %+v) = %v, brute = %v", pc, qc, got, brute)
		}
	}
}

func TestCountBelowMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		p := smallPattern(rng)
		n := uint32(rng.Intn(4096))
		brute := 0
		for x := uint32(0); x < n; x++ {
			if p.Contains(x) {
				brute++
			}
		}
		if got := p.CountBelow(n); got != brute {
			t.Fatalf("CountBelow(%+v, %d) = %d, brute = %d", p, n, got, brute)
		}
	}
}

func TestNextMatch(t *testing.T) {
	cases := []struct {
		lo, mask, val uint32
		want          uint32
		ok            bool
	}{
		{0, 0, 0, 0, true},
		{5, 0, 0, 5, true},
		{5, ^uint32(0), 3, 0, false}, // exact 3 < 5: no match
		{3, ^uint32(0), 3, 3, true},  // exact hit
		{1, 0b10, 0b10, 2, true},     // next with bit1 set
		{3, 0b10, 0b10, 3, true},     // 3 has bit1 set
		{4, 0b10, 0b10, 6, true},     // skip 4,5
		{0xFFFFFFFF, 1, 0, 0, false}, // max value is odd; no even >= it
		{0xFFFFFFFE, 1, 0, 0xFFFFFFFE, true},
	}
	for _, tc := range cases {
		got, ok := nextMatch(tc.lo, tc.mask, tc.val)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("nextMatch(%#x,%#x,%#x) = %#x,%v want %#x,%v",
				tc.lo, tc.mask, tc.val, got, ok, tc.want, tc.ok)
		}
	}
}

func TestNextMatchIsMinimal(t *testing.T) {
	f := func(lo uint16, mask uint16, rawVal uint16) bool {
		m, v := uint32(mask), uint32(rawVal)&uint32(mask)
		got, ok := nextMatch(uint32(lo), m, v)
		// Brute force over the 16-bit domain plus a margin.
		for x := uint32(lo); x < uint32(lo)+1<<17; x++ {
			if x&m == v {
				return ok && got == x
			}
		}
		return true // nothing in scanned window; accept either result
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSpread(t *testing.T) {
	// spread over mask 0b0101: free bits are 1 and 3 (and upward).
	if got := spread(0b11, 0b0101); got != 0b1010 {
		t.Errorf("spread(0b11, 0b0101) = %#b, want 0b1010", got)
	}
	if got := spread(0, 0); got != 0 {
		t.Errorf("spread(0,0) = %d, want 0", got)
	}
	// With mask 0 every bit is free: spread is identity.
	if got := spread(0xABCD, 0); got != 0xABCD {
		t.Errorf("spread identity = %#x", got)
	}
}

func TestRegionOverlaps(t *testing.T) {
	mk := func(stk int, die, bank, row, col Pattern) Region {
		return Region{Stack: stk, Die: die, Bank: bank, Row: row, Col: col}
	}
	bankFault := mk(0, ExactPattern(2), ExactPattern(3), AllPattern(), AllPattern())
	bitInBank := mk(0, ExactPattern(2), ExactPattern(3), ExactPattern(100), ExactPattern(5))
	bitElsewhere := mk(0, ExactPattern(2), ExactPattern(4), ExactPattern(100), ExactPattern(5))
	otherStack := mk(1, ExactPattern(2), ExactPattern(3), AllPattern(), AllPattern())

	if !bankFault.Overlaps(bitInBank) {
		t.Error("bank fault should overlap bit fault in same bank")
	}
	if bankFault.Overlaps(bitElsewhere) {
		t.Error("bank fault should not overlap bit fault in other bank")
	}
	if bankFault.Overlaps(otherStack) {
		t.Error("faults in different stacks should not overlap")
	}
	if !bankFault.Overlaps(bankFault) {
		t.Error("fault should overlap itself")
	}
}

func TestRegionContainsCell(t *testing.T) {
	r := Region{
		Stack: 0,
		Die:   ExactPattern(1),
		Bank:  AllPattern(),
		Row:   MaskPattern(1<<3, 1<<3), // rows with bit 3 set
		Col:   AllPattern(),
	}
	if !r.ContainsCell(0, 1, 5, 8, 0) {
		t.Error("row 8 (bit3 set) should be contained")
	}
	if r.ContainsCell(0, 1, 5, 7, 0) {
		t.Error("row 7 (bit3 clear) should not be contained")
	}
	if r.ContainsCell(1, 1, 5, 8, 0) {
		t.Error("wrong stack should not be contained")
	}
}

func TestPatternFirstMatchesLinearScan(t *testing.T) {
	// First must agree with the brute-force smallest member for every
	// pattern shape the sampler produces (exact, mask/stride, range,
	// half-space) plus adversarial combinations.
	pats := []Pattern{
		AllPattern(),
		ExactPattern(0),
		ExactPattern(37),
		ExactPattern(1000), // outside small domains
		MaskPattern(255, 17),
		MaskPattern(1<<4, 1<<4),
		MaskPattern(1<<4, 0),
		RangePattern(10, 20),
		RangePattern(64, 64), // empty
		{Mask: 7, Val: 5, Lo: 30, Hi: 200},
		{Mask: 1 << 9, Val: 1 << 9, Lo: 100, Hi: 0},
		{Mask: ^uint32(0), Val: 513, Lo: 0, Hi: 514},
		{Mask: ^uint32(0), Val: 513, Lo: 0, Hi: 513}, // empty
	}
	for _, n := range []uint32{0, 1, 13, 64, 512, 1024} {
		for _, p := range pats {
			wantV, wantOK := uint32(0), false
			for v := uint32(0); v < n; v++ {
				if p.Contains(v) {
					wantV, wantOK = v, true
					break
				}
			}
			gotV, gotOK := p.First(n)
			if gotOK != wantOK || (wantOK && gotV != wantV) {
				t.Errorf("First(%v, n=%d) = (%d,%t), want (%d,%t)", p, n, gotV, gotOK, wantV, wantOK)
			}
		}
	}
}

// edgeMasks are the mask shapes the fault model builds — all-free, exact,
// the data-TSV stride, an address-TSV half-space, an aligned word — plus a
// random one. The first two take nextMatch's and countMatchesBelow's
// constant-time paths; the rest take the generic search and digit DP.
func edgeMask(rng *rand.Rand, width uint) uint32 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return ^uint32(0)
	case 2:
		return 255
	case 3:
		return 1 << uint(rng.Intn(int(width)))
	case 4:
		return ^uint32(63)
	default:
		return rng.Uint32()
	}
}

// edgeBound draws a bound from [base, base+span): either end, the second
// value, or a random one.
func edgeBound(rng *rand.Rand, base, span uint64) uint32 {
	switch rng.Intn(4) {
	case 0:
		return uint32(base)
	case 1:
		return uint32(base + 1)
	case 2:
		return uint32(base + span - 1)
	default:
		return uint32(base + uint64(rng.Int63n(int64(span))))
	}
}

func TestFastPathsMatchGeneric(t *testing.T) {
	// On the full 32-bit width, the constant-time answers of nextMatch and
	// countMatchesBelow must equal the binary search and digit DP.
	rng := rand.New(rand.NewSource(4))
	edges := []uint32{0, 1, 2, 1 << 31, ^uint32(0) - 1, ^uint32(0)}
	pick := func() uint32 {
		if rng.Intn(2) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return rng.Uint32()
	}
	for trial := 0; trial < 20000; trial++ {
		mask := edgeMask(rng, 32)
		val := pick() & mask
		x := pick()
		if got, want := countMatchesBelow(x, mask, val), countMatchesDP(x, mask, val); got != want {
			t.Fatalf("countMatchesBelow(%#x,%#x,%#x) = %d, digit DP %d", x, mask, val, got, want)
		}
		got, gotOK := nextMatch(x, mask, val)
		want, wantOK := nextMatchSearch(x, mask, val)
		if gotOK != wantOK || (gotOK && got != want) {
			t.Fatalf("nextMatch(%#x,%#x,%#x) = %#x,%v, search %#x,%v", x, mask, val, got, gotOK, want, wantOK)
		}
	}
}

// windowPattern draws a pattern whose members all lie in [base, base+span)
// (Hi == 0 standing for 2^32 when the window reaches the top), with Lo and
// Hi at the window's edges as often as inside it.
func windowPattern(rng *rand.Rand, base, span uint64) Pattern {
	mask := edgeMask(rng, 12)
	p := Pattern{Mask: mask, Val: (uint32(base) + uint32(rng.Intn(int(span)))) & mask}
	p.Lo = edgeBound(rng, base, span)
	if base+span == 1<<32 && rng.Intn(3) == 0 {
		p.Hi = 0
	} else {
		p.Hi = edgeBound(rng, base, span)
		if base == 0 && p.Hi == 0 {
			p.Hi = uint32(span)
		}
	}
	return p
}

func TestPatternEdgesMatchBruteForce(t *testing.T) {
	// CountBelow, First and Intersects against enumeration on two narrowed
	// domains: the bottom of the index space, where Lo and Hi sit at 0 and
	// 1, and the top, where they sit at 2^32-1 and Hi == 0 means unbounded.
	const span = 4096
	rng := rand.New(rand.NewSource(5))
	for _, base := range []uint64{0, 1<<32 - span} {
		end := base + span
		member := func(p Pattern, x uint64) bool { return x >= base && x < end && p.Contains(uint32(x)) }
		for trial := 0; trial < 3000; trial++ {
			p := windowPattern(rng, base, span)
			q := windowPattern(rng, base, span)
			n := uint64(edgeBound(rng, base, span))
			if base == 0 && rng.Intn(4) == 0 {
				n = span
			}
			count, first, firstOK, meet := 0, uint32(0), false, false
			for x := base; x < end; x++ {
				inP := member(p, x)
				if inP && x < n {
					if !firstOK {
						first, firstOK = uint32(x), true
					}
					count++
				}
				if inP && member(q, x) {
					meet = true
				}
			}
			if base > 0 {
				// Members below the window do not exist; CountBelow counts
				// from zero, so compare the window's share.
				if got := p.CountBelow(uint32(n)) - p.CountBelow(uint32(base)); got != count {
					t.Fatalf("CountBelow window(%+v, %#x) = %d, brute %d", p, n, got, count)
				}
			} else if got := p.CountBelow(uint32(n)); got != count {
				t.Fatalf("CountBelow(%+v, %d) = %d, brute %d", p, n, got, count)
			}
			if got, ok := p.First(uint32(n)); ok != firstOK || (ok && got != first) {
				t.Fatalf("First(%+v, %#x) = %#x,%v, brute %#x,%v", p, n, got, ok, first, firstOK)
			}
			if got := p.Intersects(q); got != meet {
				t.Fatalf("Intersects(%+v, %+v) = %v, brute %v", p, q, got, meet)
			}
		}
	}
}
