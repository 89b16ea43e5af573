package fault

import "math/bits"

// Pattern describes a set of non-negative integers (die, bank, row, or
// bit-column indices) in a form closed under the intersections the fault
// algebra needs. A value x belongs to the pattern when
//
//	x & Mask == Val  &&  Lo <= x < Hi
//
// Hi == 0 means "no upper bound". The mask/value part captures exact
// locations (Mask = all ones), "everything" (Mask = 0), strided sets such as
// the bits carried by one data TSV (Mask = TSVs-1), and the half-address
// spaces produced by a faulty address TSV (Mask = 1<<k). The range part
// captures contiguous extents such as a sub-array's rows.
type Pattern struct {
	Mask, Val uint32
	Lo, Hi    uint32
}

// AllPattern matches every index.
func AllPattern() Pattern { return Pattern{} }

// ExactPattern matches only v.
func ExactPattern(v uint32) Pattern { return Pattern{Mask: ^uint32(0), Val: v} }

// MaskPattern matches {x : x&mask == val}.
func MaskPattern(mask, val uint32) Pattern { return Pattern{Mask: mask, Val: val & mask} }

// RangePattern matches [lo, hi).
func RangePattern(lo, hi uint32) Pattern { return Pattern{Lo: lo, Hi: hi} }

// Contains reports whether x belongs to the pattern.
func (p Pattern) Contains(x uint32) bool {
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

// spread distributes the low bits of f into the zero-bit positions of mask,
// from least significant upward (a software PDEP over ^mask).
func spread(f, mask uint32) uint32 {
	var out uint32
	free := ^mask
	for free != 0 {
		pos := uint32(bits.TrailingZeros32(free))
		if f&1 != 0 {
			out |= 1 << pos
		}
		f >>= 1
		free &= free - 1
	}
	return out
}

// nextMatch returns the smallest x >= lo with x&mask == val, and whether one
// exists within 32-bit range. The all-free and exact masks — AllPattern and
// ExactPattern, most of the patterns the sampler builds — answer in O(1);
// strided and half-space masks take the binary search.
func nextMatch(lo, mask, val uint32) (uint32, bool) {
	val &= mask
	switch mask {
	case 0:
		return lo, true
	case ^uint32(0):
		if val < lo {
			return 0, false
		}
		return val, true
	}
	return nextMatchSearch(lo, mask, val)
}

// nextMatchSearch is nextMatch for any mask, val already masked.
func nextMatchSearch(lo, mask, val uint32) (uint32, bool) {
	freeBits := uint(bits.OnesCount32(^mask))
	// Binary search the free-bit counter: y(f) = spread(f)|val is strictly
	// increasing in f, so find the least f with y(f) >= lo.
	loF, hiF := uint64(0), uint64(1)<<freeBits // hiF exclusive
	if spread(uint32(hiF-1), mask)|val < lo {
		return 0, false
	}
	for loF < hiF {
		mid := (loF + hiF) / 2
		if spread(uint32(mid), mask)|val >= lo {
			hiF = mid
		} else {
			loF = mid + 1
		}
	}
	return spread(uint32(loF), mask) | val, true
}

// Intersects reports whether two patterns share at least one value.
func (p Pattern) Intersects(q Pattern) bool {
	// Mask/value compatibility on the shared mask bits.
	if (p.Val^q.Val)&(p.Mask&q.Mask) != 0 {
		return false
	}
	mask := p.Mask | q.Mask
	val := p.Val | q.Val
	lo := p.Lo
	if q.Lo > lo {
		lo = q.Lo
	}
	hi := p.Hi
	if hi == 0 || (q.Hi != 0 && q.Hi < hi) {
		hi = q.Hi
	}
	x, ok := nextMatch(lo, mask, val)
	if !ok {
		return false
	}
	return hi == 0 || x < hi
}

// First returns the smallest member of the pattern in [0, n), if any.
// It runs in O(log n) — the correctability hot path asks this for row
// patterns with 64 Ki-value domains, where a linear scan is ruinous.
func (p Pattern) First(n uint32) (uint32, bool) {
	hi := n
	if p.Hi != 0 && p.Hi < hi {
		hi = p.Hi
	}
	x, ok := nextMatch(p.Lo, p.Mask, p.Val)
	if !ok || x >= hi {
		return 0, false
	}
	return x, true
}

// countMatchesBelow returns |{x < hi : x&mask == val}|. The all-free and
// exact masks answer in O(1); other masks scan the bit positions of hi from
// high to low (a digit DP over the binary expansion).
func countMatchesBelow(hi, mask, val uint32) uint64 {
	switch mask {
	case 0:
		return uint64(hi)
	case ^uint32(0):
		if val < hi {
			return 1
		}
		return 0
	}
	return countMatchesDP(hi, mask, val)
}

// countMatchesDP is countMatchesBelow for any mask.
func countMatchesDP(hi, mask, val uint32) uint64 {
	var count uint64
	for b := 31; b >= 0; b-- {
		bit := uint32(1) << uint(b)
		if hi&bit == 0 {
			continue
		}
		// Count x that agree with hi on bits above b, have 0 at bit b, and
		// anything in the free (unmasked) bits below b.
		high := ^(bit | (bit - 1))
		if (hi^val)&mask&high != 0 {
			continue
		}
		if mask&bit != 0 && val&bit != 0 {
			continue
		}
		freeLow := bits.OnesCount32(^mask & (bit - 1))
		count += 1 << uint(freeLow)
	}
	return count
}

// CountBelow returns |{x in pattern : x < n}|, the number of pattern members
// in [0, n). Used for sizing fault footprints (e.g. rows needing sparing).
func (p Pattern) CountBelow(n uint32) int {
	hi := n
	if p.Hi != 0 && p.Hi < hi {
		hi = p.Hi
	}
	if p.Lo >= hi {
		return 0
	}
	return int(countMatchesBelow(hi, p.Mask, p.Val) - countMatchesBelow(p.Lo, p.Mask, p.Val))
}
