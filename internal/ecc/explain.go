package ecc

import (
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/stack"
)

// Reason-chain codes. A forensic record carries an ordered list of Reasons
// explaining why a trial's live fault set defeated its protection scheme.
// Scheme-level codes come from the Explainer implementations below;
// engine-level codes (DDS spare exhaustion, TSV-SWAP budget overflow) are
// appended by the Monte Carlo engine, which sees the sparing state the
// predicates do not. The vocabulary is documented in DESIGN.md.
const (
	// ReasonSymbolBudget: one fault alone corrupts more symbols per
	// codeword than the symbol code can correct.
	ReasonSymbolBudget = "symbol-budget-exceeded"
	// ReasonSymbolPair: two individually-correctable faults collide in a
	// common codeword and together exceed the symbol budget.
	ReasonSymbolPair = "symbol-pair-collision"
	// ReasonDeviceGranularPair: FaultSim-style bookkeeping — two
	// permanently faulty units share a codeword domain.
	ReasonDeviceGranularPair = "device-granular-pair"
	// ReasonBCHBudget: a fault corrupts more bits per line than BCH corrects.
	ReasonBCHBudget = "bch-bit-budget"
	// ReasonBCHPair: two faults co-locate on a line and exceed the bit budget.
	ReasonBCHPair = "bch-pair-collision"
	// ReasonNoProtection: the unprotected baseline fails on any fault.
	ReasonNoProtection = "no-protection"
	// ReasonUncorrectable is the generic fallback for predicates without a
	// scheme-specific explainer.
	ReasonUncorrectable = "uncorrectable"

	// Engine-level codes, appended by internal/faultsim at capture time.

	// ReasonDDSFootprint: DDS rejected a fault whose footprint spans more
	// than one bank (row/bank sparing cannot cover it).
	ReasonDDSFootprint = "dds-unsparable-footprint"
	// ReasonDDSBankSpares: DDS rejected a bank-sparing request because the
	// stack's spare banks were exhausted.
	ReasonDDSBankSpares = "dds-bank-spares-exhausted"
	// ReasonTSVSwapOverflow: a TSV fault arrived after the TSV-SWAP
	// stand-by budget for its channel was exhausted.
	ReasonTSVSwapOverflow = "tsvswap-budget-overflow"
	// ReasonCRCUndetected is reserved: the reliability model assumes the
	// per-line CRC-32 detects every corruption (paper §VI-C measures the
	// undetected-error probability as negligible), so the Monte Carlo
	// engine never emits this code today. It is part of the vocabulary so
	// a future detection-model extension has a stable name.
	ReasonCRCUndetected = "crc-undetected"
)

// ReasonParityCollision returns the code for a parity-dimension collision,
// e.g. "parity-dim1-collision".
func ReasonParityCollision(dim fmt.Stringer) string {
	return "parity-" + dim.String() + "-collision"
}

// Reason is one machine-readable step of a forensic reason chain.
type Reason struct {
	Code   string `json:"code"`
	Detail string `json:"detail,omitempty"`
}

// Explainer is implemented by predicates that can attribute an
// uncorrectable verdict to specific faults and mechanisms. Explain is only
// meaningful when Uncorrectable(live) is true; it must not retain the live
// slice (same contract as Predicate.Uncorrectable) and is allowed to
// allocate — it runs once per captured failure, never on the trial hot path.
type Explainer interface {
	Explain(live []fault.Fault) []Reason
}

// Explain produces the reason chain for an uncorrectable live set, falling
// back to a generic reason for predicates without scheme-specific support
// (e.g. 2D-ECC).
func Explain(p Predicate, live []fault.Fault) []Reason {
	if e, ok := p.(Explainer); ok {
		if rs := e.Explain(live); len(rs) > 0 {
			return rs
		}
	}
	return []Reason{{Code: ReasonUncorrectable, Detail: p.Name()}}
}

// Explain implements Explainer: it mirrors Uncorrectable but enumerates
// every violated rule instead of returning at the first.
func (s *Symbol8) Explain(live []fault.Fault) []Reason {
	var out []Reason
	ds := make([]damage, len(live))
	for i, f := range live {
		d := s.assess(&live[i])
		ds[i] = d
		single := false
		switch s.striping {
		case stack.SameBank:
			single = !d.meta && d.symbols > s.SymbolBudget
		default:
			single = d.units >= 2 && d.symbols > s.SymbolBudget
		}
		if single {
			out = append(out, Reason{
				Code: ReasonSymbolBudget,
				Detail: fmt.Sprintf("fault #%d (%s) corrupts %d symbols across %d unit(s) in one codeword, budget %d",
					i, f, d.symbols, d.units, s.SymbolBudget),
			})
		}
	}
	for i := 0; i < len(live); i++ {
		for j := i + 1; j < len(live); j++ {
			if s.pairFails(&live[i], ds[i], &live[j], ds[j]) {
				out = append(out, Reason{
					Code: ReasonSymbolPair,
					Detail: fmt.Sprintf("faults #%d (%s) and #%d (%s) share a codeword: %d+%d symbols exceed budget %d",
						i, live[i], j, live[j], ds[i].symbols, ds[j].symbols, s.SymbolBudget),
				})
			}
			if s.DeviceGranular && s.striping != stack.SameBank &&
				s.deviceGranularPairFails(&live[i], &live[j]) {
				out = append(out, Reason{
					Code: ReasonDeviceGranularPair,
					Detail: fmt.Sprintf("faults #%d (%s) and #%d (%s) mark two permanently faulty units in one codeword domain",
						i, live[i], j, live[j]),
				})
			}
		}
	}
	return out
}

// Explain implements Explainer for the BCH code.
func (b *BCH6EC7ED) Explain(live []fault.Fault) []Reason {
	var out []Reason
	bits := make([]int, len(live))
	for i, f := range live {
		bits[i] = b.bitsPerLine(&live[i])
		if bits[i] > b.BitBudget {
			out = append(out, Reason{
				Code: ReasonBCHBudget,
				Detail: fmt.Sprintf("fault #%d (%s) corrupts %d bits/line, budget %d",
					i, f, bits[i], b.BitBudget),
			})
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
				out = append(out, Reason{
					Code: ReasonBCHPair,
					Detail: fmt.Sprintf("faults #%d (%s) and #%d (%s) co-locate on a line: %d+%d bits exceed budget %d",
						i, live[i], j, live[j], bits[i], bits[j], b.BitBudget),
				})
			}
		}
	}
	return out
}

// Explain implements Explainer for the parity (kDP) predicate: it replays
// the peeling fixpoint with index tracking and reports, per surviving fault
// and per parity dimension, which faults block its reconstruction groups.
func (p *ParityPredicate) Explain(live []fault.Fault) []Reason {
	regions := make([]fault.Region, len(live))
	for i, f := range live {
		regions[i] = f.Region
	}
	blames := p.an.Explain(regions)
	var out []Reason
	dims := p.an.Dims().List()
	for _, bl := range blames {
		for _, d := range dims {
			out = append(out, Reason{
				Code: ReasonParityCollision(d),
				Detail: fmt.Sprintf("fault #%d (%s) blocked in %s by fault(s) %v",
					bl.Index, live[bl.Index], d, bl.Blockers[d]),
			})
		}
	}
	return out
}

// Explain implements Explainer for RAID-5 by reusing the inner symbol-code
// attribution under RAID-5 codes (the capability model is the single-
// erasure special case of the Across-Channels symbol code).
func (r *RAID5) Explain(live []fault.Fault) []Reason {
	out := r.inner.Explain(live)
	for i := range out {
		out[i].Code = strings.Replace(out[i].Code, "symbol-", "raid5-", 1)
	}
	return out
}

// Explain implements Explainer for the unprotected baseline.
func (NoProtection) Explain(live []fault.Fault) []Reason {
	if len(live) == 0 {
		return nil
	}
	return []Reason{{
		Code:   ReasonNoProtection,
		Detail: fmt.Sprintf("%d live fault(s), first: %s", len(live), live[0]),
	}}
}
