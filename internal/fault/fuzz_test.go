package fault

import "testing"

// FuzzPatternAlgebra checks Intersects and CountBelow against direct
// enumeration on a bounded domain for arbitrary patterns.
func FuzzPatternAlgebra(f *testing.F) {
	f.Add(uint32(0xFF), uint32(7), uint32(0), uint32(0), uint32(3), uint32(100), uint32(0), uint32(0))
	f.Fuzz(func(t *testing.T, m1, v1, lo1, hi1, m2, v2, lo2, hi2 uint32) {
		const domain = 512
		p := Pattern{Mask: m1 % domain, Val: v1 % domain, Lo: lo1 % domain, Hi: hi1 % domain}
		q := Pattern{Mask: m2 % domain, Val: v2 % domain, Lo: lo2 % domain, Hi: hi2 % domain}
		p.Val &= p.Mask
		q.Val &= q.Mask
		// Cap to the domain so brute force is exact.
		if p.Hi == 0 || p.Hi > domain {
			p.Hi = domain
		}
		if q.Hi == 0 || q.Hi > domain {
			q.Hi = domain
		}
		brute := false
		countP := 0
		for x := uint32(0); x < domain; x++ {
			inP := p.Contains(x)
			if inP {
				countP++
			}
			if inP && q.Contains(x) {
				brute = true
			}
		}
		if got := p.Intersects(q); got != brute {
			t.Fatalf("Intersects(%+v,%+v) = %v, brute %v", p, q, got, brute)
		}
		if got := p.CountBelow(domain); got != countP {
			t.Fatalf("CountBelow(%+v) = %d, brute %d", p, got, countP)
		}
	})
}

// FuzzNextMatchMinimal validates nextMatch's minimality.
func FuzzNextMatchMinimal(f *testing.F) {
	f.Add(uint32(5), uint32(0b1010), uint32(0b1000))
	f.Fuzz(func(t *testing.T, lo, mask, val uint32) {
		lo %= 1 << 20
		mask %= 1 << 20
		val &= mask
		got, ok := nextMatch(lo, mask, val)
		// Scan a window for the true answer.
		for x := lo; x < lo+(1<<12); x++ {
			if x&mask == val {
				if !ok || got != x {
					t.Fatalf("nextMatch(%d,%#x,%#x) = %d,%v; want %d", lo, mask, val, got, ok, x)
				}
				return
			}
		}
		// Nothing in the window: if nextMatch found something it must be
		// beyond the window and still a match.
		if ok && (got < lo || got&mask != val) {
			t.Fatalf("nextMatch returned invalid %d", got)
		}
	})
}

// FuzzFastPaths checks the constant-time answers of nextMatch and
// countMatchesBelow against the generic binary search and digit DP over the
// full 32-bit width. shape selects the mask: all-free, exact, the data-TSV
// stride, an address-TSV half-space, or raw.
func FuzzFastPaths(f *testing.F) {
	for _, x := range []uint32{0, 1, 1 << 31, ^uint32(0)} {
		for shape := uint8(0); shape < 5; shape++ {
			f.Add(x, shape, uint32(0xdeadbeef), x)
		}
	}
	f.Fuzz(func(t *testing.T, x uint32, shape uint8, raw, val uint32) {
		var mask uint32
		switch shape % 5 {
		case 0:
			mask = 0
		case 1:
			mask = ^uint32(0)
		case 2:
			mask = 255
		case 3:
			mask = 1 << (raw % 32)
		default:
			mask = raw
		}
		val &= mask
		if got, want := countMatchesBelow(x, mask, val), countMatchesDP(x, mask, val); got != want {
			t.Fatalf("countMatchesBelow(%#x,%#x,%#x) = %d, digit DP %d", x, mask, val, got, want)
		}
		got, gotOK := nextMatch(x, mask, val)
		want, wantOK := nextMatchSearch(x, mask, val)
		if gotOK != wantOK || (gotOK && got != want) {
			t.Fatalf("nextMatch(%#x,%#x,%#x) = %#x,%v, search %#x,%v", x, mask, val, got, gotOK, want, wantOK)
		}
	})
}
