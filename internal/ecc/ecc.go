// Package ecc provides the correction-capability predicates that the Monte
// Carlo engine evaluates for each protection scheme Citadel compares
// against: the strong 8-bit symbol-based (ChipKill-like) code under the
// three data-striping layouts, a 6EC7ED BCH code, and RAID-5 style parity.
// (The parity-based 1DP/2DP/3DP predicates live in internal/parity; this
// package adapts everything to a single Predicate interface.)
//
// Predicates answer one question: given the set of live faults, is there at
// least one codeword whose errors exceed the scheme's correction
// capability? They reason symbolically over fault footprints using the
// pattern algebra of internal/fault, with one crucial distinction: TSV
// faults corrupt *transfers*, not storage, so their damage per codeword is
// fixed (burst-length bits at fixed line positions) regardless of where the
// codeword's bits are stored — which is exactly why striping changes their
// impact (paper §V-B).
package ecc

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/parity"
	"repro/internal/stack"
)

// Predicate decides whether a live fault set defeats a protection scheme.
type Predicate interface {
	// Name identifies the scheme in reports.
	Name() string
	// Uncorrectable reports whether the live faults cause data loss.
	//
	// Implementations must not retain the live slice (or any view of its
	// backing array) past the call: the Monte Carlo engine reuses one
	// scratch buffer for every evaluation of a trial, so a retained slice
	// is silently overwritten by later faults and trials. Reading it
	// during the call is free — no defensive copy is required. The engine
	// tests enforce this contract (faultsim TestPredicatesDoNotRetainLiveSlice).
	Uncorrectable(live []fault.Fault) bool
}

// windowsIntersect reports whether two column patterns both touch some
// aligned window of windowBits within a row of totalBits.
func windowsIntersect(a, b fault.Pattern, windowBits, totalBits int) bool {
	for lo := 0; lo < totalBits; lo += windowBits {
		w := fault.RangePattern(uint32(lo), uint32(lo+windowBits))
		if a.Intersects(w) && b.Intersects(w) {
			return true
		}
	}
	return false
}

// maxUnitsPerWindow returns the maximum, over aligned outer windows of
// outerBits, of the number of aligned inner units (unitBits wide) inside
// that window touched by pattern p. E.g. with outer = a 512-bit line and
// unit = 8-bit symbols, it returns the worst-case corrupted symbols per
// line.
func maxUnitsPerWindow(p fault.Pattern, unitBits, outerBits, totalBits int) int {
	maxCount := 0
	for lo := 0; lo < totalBits; lo += outerBits {
		outer := fault.RangePattern(uint32(lo), uint32(lo+outerBits))
		if !p.Intersects(outer) {
			continue
		}
		count := 0
		for u := lo; u < lo+outerBits; u += unitBits {
			if p.Intersects(fault.RangePattern(uint32(u), uint32(u+unitBits))) {
				count++
			}
		}
		if count > maxCount {
			maxCount = count
		}
	}
	return maxCount
}

// storageSymbols returns the worst-case corrupted byte-symbols a storage
// fault of the given class contributes within one aligned window of
// windowBits (closed form; footprint shapes are class-determined, so no
// pattern enumeration is needed on the Monte Carlo hot path).
func storageSymbols(class fault.Class, windowBits int) int {
	capSym := windowBits / 8
	switch class {
	case fault.Bit, fault.Column:
		return 1
	case fault.Word:
		if capSym < 8 {
			return capSym
		}
		return 8
	default: // Row, SubArray, Bank: the whole window
		return capSym
	}
}

// distinctValuesAvailable reports whether patterns a and b admit two
// different values within [0, n) — i.e. a codeword can see them in two
// different units.
func distinctValuesAvailable(a, b fault.Pattern, n int) bool {
	ca, cb := a.CountBelow(uint32(n)), b.CountBelow(uint32(n))
	if ca == 0 || cb == 0 {
		return false
	}
	if ca > 1 || cb > 1 {
		return true
	}
	for v := uint32(0); v < uint32(n); v++ {
		if a.Contains(v) {
			return !b.Contains(v)
		}
	}
	return false
}

// Symbol8 is the paper's baseline: a strong 8-bit-symbol code (similar to
// ChipKill) with 64 check bits per 512-bit line — an RS(72,64)-style code —
// applied under one of the three striping layouts.
//
// Capability model (per codeword = one cache line + its 8 check symbols):
//
//   - up to SymbolBudget (4) corrupted symbols at unknown positions are
//     always correctable;
//   - under the striped layouts, corruption confined to ONE striping unit
//     is correctable regardless of size (the ChipKill property: the failed
//     unit is identified and erased — 8 erasures fit the 8 check symbols);
//   - corruption spanning two or more units with more than SymbolBudget
//     total symbols is uncorrectable (erasing a whole unit leaves no margin
//     for additional errors: 2*errors + erasures exceeds 8).
//
// TSV faults are evaluated in the transfer domain: a faulty data TSV flips
// BurstLength (2) fixed bit positions of every transferred line of its
// channel; a faulty address TSV makes half the channel's rows unreachable
// (the whole line for layouts that gather the line through that channel's
// address TSVs, one unit for Across-Channels).
type Symbol8 struct {
	cfg      stack.Config
	striping stack.Striping

	// SymbolBudget is the number of corrupted symbols per codeword
	// correctable at unknown positions (4 for RS(72,64)).
	SymbolBudget int

	// DeviceGranular switches the striped layouts to FaultSim-style
	// device-granularity bookkeeping: once a unit (die/bank) has any
	// permanent fault, the decoder must treat that unit as suspect in
	// every codeword, so a second permanently-faulty unit in the same
	// codeword domain is uncorrectable regardless of fine co-location.
	// This is coarser than the true RS(72,64) capability (which needs the
	// two faults to share a codeword) but matches how FaultSim-class
	// tools — and hence the paper's Figures 14/18 — book ChipKill
	// failures.
	DeviceGranular bool
}

// NewSymbol8 builds the symbol-code predicate for a striping layout with
// exact codeword-level bookkeeping.
func NewSymbol8(cfg stack.Config, s stack.Striping) *Symbol8 {
	return &Symbol8{cfg: cfg, striping: s, SymbolBudget: 4}
}

// NewSymbol8DeviceGranular builds the predicate with FaultSim-style
// device-granularity bookkeeping (see Symbol8.DeviceGranular).
func NewSymbol8DeviceGranular(cfg stack.Config, s stack.Striping) *Symbol8 {
	p := NewSymbol8(cfg, s)
	p.DeviceGranular = true
	return p
}

// Name implements Predicate.
func (s *Symbol8) Name() string {
	name := "Symbol8/" + s.striping.String()
	if s.DeviceGranular {
		name += "/dev-gran"
	}
	return name
}

// Striping returns the layout the predicate models.
func (s *Symbol8) Striping() stack.Striping { return s.striping }

func (s *Symbol8) rowBits() int  { return s.cfg.RowBytes * 8 }
func (s *Symbol8) lineBits() int { return s.cfg.LineBytes * 8 }
func (s *Symbol8) metaDie() int  { return s.cfg.DataDies }

// isMetaDie reports whether the footprint lies in the metadata die.
func (s *Symbol8) isMetaDie(r *fault.Region) bool {
	return r.Die.CountBelow(uint32(s.cfg.DataDies)) == 0 &&
		r.Die.Contains(uint32(s.metaDie()))
}

// damage characterizes a fault's worst-case effect on one codeword.
type damage struct {
	units   int  // distinct striping units touched within one codeword
	symbols int  // worst-case corrupted symbols in one codeword
	meta    bool // corruption lives in the metadata/ECC unit
	tsvData bool // data-TSV transfer fault (co-locates with every line)
	atsv    bool // address-TSV fault
}

// assess computes the damage of one fault under the configured striping.
func (s *Symbol8) assess(f *fault.Fault) damage {
	meta := s.isMetaDie(&f.Region)
	lineSymbols := s.cfg.LineBytes // 64 symbols for a 64B line
	switch s.striping {
	case stack.SameBank:
		switch f.Class {
		case fault.DataTSV:
			// BurstLength fixed bit positions per line: that many symbols.
			return damage{units: 1, symbols: s.cfg.BurstLength, meta: meta, tsvData: true}
		case fault.AddrTSV:
			if meta {
				// Half the metadata rows unreachable: the ECC symbols of
				// affected lines are lost (8 of 72) — erasable? No: the
				// Same-Bank layout has no cross-unit erasure, but losing
				// only check symbols keeps the data intact.
				return damage{units: 1, symbols: s.cfg.LineBytes * 8 / 64, meta: true, atsv: true}
			}
			return damage{units: 1, symbols: lineSymbols, atsv: true}
		default:
			if meta {
				// ECC slice of a line is 64 bits: at most 8 symbols.
				return damage{units: 1, symbols: storageSymbols(f.Class, 64), meta: true}
			}
			return damage{units: 1, symbols: storageSymbols(f.Class, s.lineBits())}
		}
	case stack.AcrossBanks:
		units := s.cfg.BanksPerDie
		sliceBits := s.lineBits() / units
		switch f.Class {
		case fault.DataTSV:
			if meta {
				return damage{units: 1, symbols: s.cfg.BurstLength, meta: true, tsvData: true}
			}
			// BurstLength corrupted bits land in BurstLength different
			// 64-bit slices (positions t and t+DataTSVs are 4 slices apart).
			return damage{units: s.cfg.BurstLength, symbols: s.cfg.BurstLength, tsvData: true}
		case fault.AddrTSV:
			if meta {
				return damage{units: 1, symbols: 8, meta: true, atsv: true}
			}
			// All banks share the address TSVs: the whole line vanishes.
			return damage{units: units, symbols: lineSymbols, atsv: true}
		default:
			if meta {
				return damage{units: 1, symbols: storageSymbols(f.Class, sliceBits), meta: true}
			}
			// Storage faults are confined to single banks in our fault
			// model; damage within that bank's slice.
			nBanks := f.Region.Bank.CountBelow(uint32(s.cfg.BanksPerDie))
			sym := storageSymbols(f.Class, sliceBits)
			return damage{units: nBanks, symbols: sym * nBanks}
		}
	case stack.AcrossChannels:
		sliceBits := s.lineBits() / s.cfg.Channels()
		switch f.Class {
		case fault.DataTSV:
			// The faulty TSV corrupts only this channel's slice.
			sym := s.cfg.BurstLength
			if sym > sliceBits/8 {
				sym = sliceBits / 8
			}
			return damage{units: 1, symbols: sym, meta: meta, tsvData: true}
		case fault.AddrTSV:
			// One channel's slice unreachable: a single-unit erasure.
			return damage{units: 1, symbols: sliceBits / 8, meta: meta, atsv: true}
		default:
			return damage{units: 1, symbols: storageSymbols(f.Class, sliceBits), meta: meta}
		}
	default:
		return damage{units: 99, symbols: 99}
	}
}

// Uncorrectable implements Predicate.
func (s *Symbol8) Uncorrectable(live []fault.Fault) bool {
	ds := make([]damage, len(live))
	for i := range live {
		d := s.assess(&live[i])
		ds[i] = d
		// Single-fault rule: corruption confined to one unit is always
		// erasable under the striped layouts; under Same-Bank there is no
		// cross-unit redundancy for data (the budget decides), except that
		// metadata-only damage never loses data by itself.
		switch s.striping {
		case stack.SameBank:
			if !d.meta && d.symbols > s.SymbolBudget {
				return true
			}
		default:
			if d.units >= 2 && d.symbols > s.SymbolBudget {
				return true
			}
		}
	}
	for i := 0; i < len(live); i++ {
		for j := i + 1; j < len(live); j++ {
			if s.pairFails(&live[i], ds[i], &live[j], ds[j]) {
				return true
			}
			if s.DeviceGranular && s.striping != stack.SameBank &&
				s.deviceGranularPairFails(&live[i], &live[j]) {
				return true
			}
		}
	}
	return false
}

// deviceGranularPairFails implements the coarse bookkeeping: two
// permanently faulty units in the same codeword domain (same stack for
// Across-Channels; same die for Across-Banks) are booked as failure.
func (s *Symbol8) deviceGranularPairFails(fa, fb *fault.Fault) bool {
	if fa.Persistence != fault.Permanent || fb.Persistence != fault.Permanent {
		return false
	}
	if fa.Region.Stack != fb.Region.Stack {
		return false
	}
	switch s.striping {
	case stack.AcrossChannels:
		dies := s.cfg.DataDies + s.cfg.ECCDies
		return distinctValuesAvailable(fa.Region.Die, fb.Region.Die, dies)
	case stack.AcrossBanks:
		return fa.Region.Die.Intersects(fb.Region.Die) &&
			distinctValuesAvailable(fa.Region.Bank, fb.Region.Bank, s.cfg.BanksPerDie)
	default:
		return false
	}
}

// pairFails reports whether two individually-correctable faults can defeat
// the code on a common codeword.
func (s *Symbol8) pairFails(fa *fault.Fault, da damage, fb *fault.Fault, db damage) bool {
	if fa.Region.Stack != fb.Region.Stack {
		return false
	}
	if da.symbols+db.symbols <= s.SymbolBudget {
		return false
	}
	switch s.striping {
	case stack.SameBank:
		return s.sameLinePossible(fa, da, fb, db)
	case stack.AcrossBanks:
		return s.acrossBanksPairHits(fa, da, fb, db)
	case stack.AcrossChannels:
		return s.acrossChannelsPairHits(fa, da, fb, db)
	}
	return true
}

// sameLinePossible: can the two faults corrupt the same Same-Bank codeword
// (a line plus its metadata ECC slice)?
func (s *Symbol8) sameLinePossible(fa *fault.Fault, da damage, fb *fault.Fault, db damage) bool {
	a, b := &fa.Region, &fb.Region
	lineB := s.lineBits()
	// A data-TSV transfer fault hits every line of its channel: co-located
	// with any fault in the same die.
	if da.tsvData || db.tsvData {
		return a.Die.Intersects(b.Die)
	}
	switch {
	case !da.meta && !db.meta:
		return a.Die.Intersects(b.Die) && a.Bank.Intersects(b.Bank) &&
			a.Row.Intersects(b.Row) &&
			windowsIntersect(a.Col, b.Col, lineB, s.rowBits())
	case da.meta && db.meta:
		return a.Bank.Intersects(b.Bank) && a.Row.Intersects(b.Row) &&
			windowsIntersect(a.Col, b.Col, 64, s.rowBits())
	default:
		meta, data := fa, fb
		if db.meta {
			meta, data = fb, fa
		}
		if !meta.Region.Bank.Intersects(data.Region.Bank) || !meta.Region.Row.Intersects(data.Region.Row) {
			return false
		}
		if meta.Class == fault.AddrTSV {
			// Half the metadata rows lost: co-located with any data fault
			// whose row pattern meets the lost half.
			return true
		}
		// ECC of line l of die D lives at metadata columns
		// [D*perDie + l*eccSlice, +eccSlice) of the co-located (bank, row).
		perDie := s.rowBits() / s.cfg.DataDies
		lines := s.cfg.LinesPerRow()
		eccSlice := perDie / lines
		for d := 0; d < s.cfg.DataDies; d++ {
			if !data.Region.Die.Contains(uint32(d)) {
				continue
			}
			for l := 0; l < lines; l++ {
				dataWin := fault.RangePattern(uint32(l*lineB), uint32((l+1)*lineB))
				if !data.Region.Col.Intersects(dataWin) {
					continue
				}
				lo := d*perDie + l*eccSlice
				if meta.Region.Col.Intersects(fault.RangePattern(uint32(lo), uint32(lo+eccSlice))) {
					return true
				}
			}
		}
		return false
	}
}

// acrossBanksPairHits: can the two faults corrupt two different units of a
// common Across-Banks codeword?
func (s *Symbol8) acrossBanksPairHits(fa *fault.Fault, da damage, fb *fault.Fault, db damage) bool {
	a, b := &fa.Region, &fb.Region
	sliceBits := s.lineBits() / s.cfg.BanksPerDie
	// TSV transfer faults co-locate with every line of the channel and
	// occupy their own units.
	if da.tsvData || db.tsvData {
		return a.Die.Intersects(b.Die)
	}
	switch {
	case !da.meta && !db.meta:
		return a.Die.Intersects(b.Die) &&
			distinctValuesAvailable(a.Bank, b.Bank, s.cfg.BanksPerDie) &&
			a.Row.Intersects(b.Row) &&
			windowsIntersect(a.Col, b.Col, sliceBits, s.rowBits())
	case da.meta && db.meta:
		// Both corrupt only the ECC unit.
		return false
	default:
		meta, data := fa, fb
		if db.meta {
			meta, data = fb, fa
		}
		if meta.Class == fault.AddrTSV {
			return true // half the ECC rows lost; pairs with any data fault
		}
		// ECC for lines of data die D is held in metadata bank D.
		metaBankMeetsDie := false
		for d := 0; d < s.cfg.DataDies; d++ {
			if data.Region.Die.Contains(uint32(d)) && meta.Region.Bank.Contains(uint32(d)) {
				metaBankMeetsDie = true
				break
			}
		}
		return metaBankMeetsDie && meta.Region.Row.Intersects(data.Region.Row) &&
			windowsIntersect(meta.Region.Col, data.Region.Col, sliceBits, s.rowBits())
	}
}

// acrossChannelsPairHits: can the two faults corrupt two different dies of
// a common Across-Channels codeword?
func (s *Symbol8) acrossChannelsPairHits(fa *fault.Fault, da damage, fb *fault.Fault, db damage) bool {
	a, b := &fa.Region, &fb.Region
	dies := s.cfg.DataDies + s.cfg.ECCDies
	if !distinctValuesAvailable(a.Die, b.Die, dies) {
		return false
	}
	sliceBits := s.lineBits() / s.cfg.Channels()
	// Channel-wide transfer faults co-locate with every codeword touching
	// their channel.
	if da.tsvData || da.atsv || db.tsvData || db.atsv {
		return true
	}
	return a.Bank.Intersects(b.Bank) && a.Row.Intersects(b.Row) &&
		windowsIntersect(a.Col, b.Col, sliceBits, s.rowBits())
}

// BCH6EC7ED models a 6-bit-correct, 7-bit-detect BCH code applied per cache
// line in the Same-Bank layout (paper §VIII-F / Figure 19).
type BCH6EC7ED struct {
	cfg stack.Config
	// BitBudget is the number of correctable bit errors per line (6).
	BitBudget int
}

// NewBCH6EC7ED builds the BCH predicate.
func NewBCH6EC7ED(cfg stack.Config) *BCH6EC7ED {
	return &BCH6EC7ED{cfg: cfg, BitBudget: 6}
}

// Name implements Predicate.
func (b *BCH6EC7ED) Name() string { return "BCH-6EC7ED" }

// bitsPerLine is the worst-case corrupted bits per line for a fault
// (closed form by class).
func (b *BCH6EC7ED) bitsPerLine(f *fault.Fault) int {
	switch f.Class {
	case fault.DataTSV:
		return b.cfg.BurstLength
	case fault.AddrTSV:
		return b.cfg.LineBytes * 8
	case fault.Bit, fault.Column:
		return 1
	case fault.Word:
		return 64
	default: // Row, SubArray, Bank
		return b.cfg.LineBytes * 8
	}
}

// Uncorrectable implements Predicate.
func (b *BCH6EC7ED) Uncorrectable(live []fault.Fault) bool {
	bits := make([]int, len(live))
	for i := range live {
		bits[i] = b.bitsPerLine(&live[i])
		if bits[i] > b.BitBudget {
			return true
		}
	}
	lineB := b.cfg.LineBytes * 8
	for i := 0; i < len(live); i++ {
		for j := i + 1; j < len(live); j++ {
			if bits[i]+bits[j] <= b.BitBudget {
				continue
			}
			ai, aj := live[i].Region, live[j].Region
			colocated := false
			if live[i].Class == fault.DataTSV || live[j].Class == fault.DataTSV {
				colocated = ai.Stack == aj.Stack && ai.Die.Intersects(aj.Die)
			} else {
				colocated = ai.Stack == aj.Stack &&
					ai.Die.Intersects(aj.Die) && ai.Bank.Intersects(aj.Bank) &&
					ai.Row.Intersects(aj.Row) &&
					windowsIntersect(ai.Col, aj.Col, lineB, b.cfg.RowBytes*8)
			}
			if colocated {
				return true
			}
		}
	}
	return false
}

// ParityPredicate adapts a parity.Analyzer (1DP/2DP/3DP) to Predicate. TSV
// faults keep their storage-domain footprints: parity reconstruction must
// itself read through the faulty TSVs, so a channel-wide TSV fault defeats
// the parity dimensions exactly as its footprint implies.
type ParityPredicate struct {
	an *parity.Analyzer
}

// NewParity builds the kDP predicate.
func NewParity(cfg stack.Config, dims parity.Dims) *ParityPredicate {
	return &ParityPredicate{an: parity.NewAnalyzer(cfg, dims)}
}

// Name implements Predicate.
func (p *ParityPredicate) Name() string { return p.an.Dims().String() }

// Uncorrectable implements Predicate.
func (p *ParityPredicate) Uncorrectable(live []fault.Fault) bool {
	regions := make([]fault.Region, len(live))
	for i, f := range live {
		regions[i] = f.Region
	}
	return p.an.Uncorrectable(regions)
}

// RAID5 models RAID-5-style single parity striped across the channels of a
// stack at line granularity: any faults confined to one die (channel) per
// parity group are correctable; two corrupted dies in the same group lose
// data. This matches the Across-Channels symbol code's unit-level
// capability with no scattered-error budget (paper §VIII-F).
type RAID5 struct {
	inner *Symbol8
}

// NewRAID5 builds the RAID-5 predicate.
func NewRAID5(cfg stack.Config) *RAID5 {
	s := NewSymbol8(cfg, stack.AcrossChannels)
	s.SymbolBudget = 0 // pure single-erasure parity: no error budget
	return &RAID5{inner: s}
}

// Name implements Predicate.
func (r *RAID5) Name() string { return "RAID-5" }

// Uncorrectable implements Predicate.
func (r *RAID5) Uncorrectable(live []fault.Fault) bool {
	return r.inner.Uncorrectable(live)
}

// NoProtection fails on any fault at all — the unprotected baseline.
type NoProtection struct{}

// Name implements Predicate.
func (NoProtection) Name() string { return "None" }

// Uncorrectable implements Predicate.
func (NoProtection) Uncorrectable(live []fault.Fault) bool { return len(live) > 0 }

// String renders any predicate by name for logs.
func String(p Predicate) string { return fmt.Sprintf("scheme(%s)", p.Name()) }
