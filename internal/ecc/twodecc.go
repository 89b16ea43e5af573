package ecc

import (
	"repro/internal/fault"
	"repro/internal/stack"
)

// TwoDECC models the 2D error coding of Kim et al. (MICRO-40), the prior
// parity scheme Citadel's §VIII-E compares against: each BlockDim x
// BlockDim cell tile inside a bank keeps horizontal and vertical parity,
// correcting error patterns confined to a single row segment or a single
// column segment of the tile. It protects against small-granularity faults
// only — whole-row faults are tolerated (one row segment per tile), but
// multi-row faults (sub-array, bank) and channel-wide TSV faults defeat it,
// which is why 3DP claims ~130x better resilience at far less storage.
type TwoDECC struct {
	cfg stack.Config
	// BlockDim is the tile dimension in cells (32 in the original paper).
	BlockDim int
}

// NewTwoDECC builds the 2D-ECC predicate.
func NewTwoDECC(cfg stack.Config) *TwoDECC {
	return &TwoDECC{cfg: cfg, BlockDim: 32}
}

// Name implements Predicate.
func (e *TwoDECC) Name() string { return "2D-ECC" }

// singleFaultFatal reports whether one fault alone defeats the tile code:
// anything touching more than one row AND more than one column of some
// tile (the two parity directions cannot isolate a 2D extent).
func (e *TwoDECC) singleFaultFatal(f *fault.Fault) bool {
	switch f.Class {
	case fault.Bit, fault.Word, fault.Row:
		// Confined to one row segment per tile: correctable by vertical
		// parity.
		return false
	case fault.Column:
		// One bit-column across many rows: one column segment per tile,
		// correctable by horizontal parity.
		return false
	case fault.DataTSV:
		// Two bit positions per line across all rows: two column segments
		// in some tiles — beyond a single-direction pattern.
		return true
	case fault.AddrTSV, fault.SubArray, fault.Bank:
		// Many rows and many columns at once.
		return true
	default:
		return true
	}
}

// Uncorrectable implements Predicate. Pairs fail when they can hit the
// same tile: same (die, bank), rows within the same BlockDim-row band, and
// columns within the same BlockDim-bit band.
func (e *TwoDECC) Uncorrectable(live []fault.Fault) bool {
	for i := range live {
		if e.singleFaultFatal(&live[i]) {
			return true
		}
	}
	rowBits := e.cfg.RowBytes * 8
	for i := 0; i < len(live); i++ {
		for j := i + 1; j < len(live); j++ {
			a, b := live[i], live[j]
			if a.Region.Stack != b.Region.Stack {
				continue
			}
			if !a.Region.Die.Intersects(b.Region.Die) ||
				!a.Region.Bank.Intersects(b.Region.Bank) {
				continue
			}
			// Same row band?
			sameRowBand := false
			for lo := 0; lo < e.cfg.RowsPerBank; lo += e.BlockDim {
				band := fault.RangePattern(uint32(lo), uint32(lo+e.BlockDim))
				if a.Region.Row.Intersects(band) && b.Region.Row.Intersects(band) {
					sameRowBand = true
					break
				}
			}
			if !sameRowBand {
				continue
			}
			if windowsIntersect(a.Region.Col, b.Region.Col, e.BlockDim, rowBits) {
				return true
			}
		}
	}
	return false
}
