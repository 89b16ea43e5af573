package parity

import "repro/internal/fault"

// This file implements incremental correctability evaluation. The Monte
// Carlo engine asks the same question after every fault arrival — "is the
// live set still correctable?" — and the batch Analyzer.Uncorrectable
// answers it by re-closing the whole set every time. State answers it
// incrementally.
//
// Two properties of the peeling algebra make this exact (the full
// equivalence argument is in DESIGN.md):
//
//  1. Monotonicity / downward closure. lost(a, live) only grows as live
//     grows, so a superset of an uncorrectable set is uncorrectable and a
//     subset of a correctable set is correctable. Peeling is confluent for
//     the same reason (removing a non-lost fault never turns another
//     removable fault permanently stuck), so the fixpoint verdict is
//     independent of removal order.
//  2. Component locality. blockedPieces(d, a, b) is empty unless a's and
//     b's projections intersect in dimension d's group coordinates —
//     (Row, Col) for Dim1, (Die, Col) for Dim2, (Bank, Col) for Dim3 —
//     within the same stack. That interference relation is symmetric, so
//     the peeling fixpoint decomposes over connected components of the
//     interference graph and the verdict is the OR of per-component
//     verdicts.
//
// Consequently, when the tracked set is correctable (the only state a
// running trial can be in while it is still alive), Add(r) needs to peel
// only the interference component of r — and nothing at all when r is
// privately recoverable in one dimension (State.private) — and Remove(r)
// needs no re-evaluation at all. The escape hatches (Remove from an
// uncorrectable set) fall back to a full peel that reuses the same scratch
// buffers, so the steady-state loop performs no heap allocation once the
// buffers have grown to working size.
//
// The peeling core here is an independent re-implementation: the batch
// Analyzer.Uncorrectable is deliberately left untouched so it can serve as
// the oracle for the differential tests in internal/ecc.

// regionInfo caches per-region quantities that blockedPieces would
// otherwise recompute for every (a, b) pair in every peeling sweep: the
// per-dimension unit counts and, for single-unit regions, the coordinates
// of that unit.
type regionInfo struct {
	r          fault.Region
	u1, u2, u3 int    // units occupied in Dim1/Dim2/Dim3 group coordinates
	fd, fb, fr uint32 // first die/bank/row value (valid when the count > 0)
}

// State tracks a live fault set and its correctability verdict under
// incremental additions and removals.
type State struct {
	an   *Analyzer
	live []regionInfo
	bad  bool

	// Scratch reused across calls; all-false / empty between calls.
	comp   []int  // indices of the interference component under evaluation
	inComp []bool // per-live-index membership marker
	alive  []bool // per-comp-position liveness during peeling
	allIdx []int  // identity index list for full re-evaluation
	pieces [3][]fault.Region
}

// NewState returns an empty (correctable) incremental state, its live set
// and scratch sized for fault.LifetimeCap regions.
func (an *Analyzer) NewState() *State {
	const n = fault.LifetimeCap
	st := &State{
		an:     an,
		live:   make([]regionInfo, 0, n),
		comp:   make([]int, 0, n),
		inComp: make([]bool, 0, n),
		alive:  make([]bool, 0, n),
		allIdx: make([]int, 0, n),
	}
	for i := range st.pieces {
		st.pieces[i] = make([]fault.Region, 0, n)
	}
	return st
}

// Reset empties the state, retaining scratch capacity.
func (st *State) Reset() {
	st.live = st.live[:0]
	st.bad = false
}

// Uncorrectable reports the current verdict.
func (st *State) Uncorrectable() bool { return st.bad }

// Len returns the number of tracked regions.
func (st *State) Len() int { return len(st.live) }

// push appends r to the live set, filling its regionInfo in place, and
// returns its index.
func (st *State) push(r *fault.Region) int {
	an := st.an
	dieDom := uint32(an.dieDomain)
	banks := uint32(an.cfg.BanksPerDie)
	dies := r.Die.CountBelow(dieDom)
	bks := r.Bank.CountBelow(banks)
	rows := r.Row.CountBelow(an.rowsPerBank)
	idx := len(st.live)
	st.live = append(st.live, regionInfo{})
	ri := &st.live[idx]
	ri.r = *r
	ri.u1, ri.u2, ri.u3 = dies*bks, bks*rows, dies*rows
	ri.fd = firstValue(r.Die, dieDom)
	ri.fb = firstValue(r.Bank, banks)
	ri.fr = firstValue(r.Row, an.rowsPerBank)
	return idx
}

// Add inserts r and returns the updated verdict. When the set was already
// uncorrectable no evaluation happens (monotonicity); when r passes the
// private-projection rule (private) it is correctable outright; otherwise
// only the interference component of r is peeled.
func (st *State) Add(r *fault.Region) bool {
	idx := st.push(r)
	if st.bad {
		return true
	}
	if st.private(idx) {
		return false
	}
	st.componentOf(idx)
	if st.peel(st.comp) {
		st.bad = true
	}
	for _, c := range st.comp {
		st.inComp[c] = false
	}
	return st.bad
}

// private is the private-projection rule for the newest region a =
// live[idx]: some enabled dimension d sees a in exactly one unit whose
// coordinates are both exact patterns, and no other live region of a's
// stack shares a d-group coordinate with a. The split of a against its
// own unit is then empty (every not-equal piece conflicts with the exact
// mask) and every other region's d-pieces against a are empty, so no cell
// of a is blocked in d under any live set: a peels first, and what is
// left is the previous live set, which was correctable.
func (st *State) private(idx int) bool {
	a := &st.live[idx]
	exact := func(p fault.Pattern) bool { return p.Mask == ^uint32(0) }
	for _, d := range st.an.dimList {
		var unit bool
		switch d {
		case Dim1:
			unit = a.u1 == 1 && exact(a.r.Die) && exact(a.r.Bank)
		case Dim2:
			unit = a.u2 == 1 && exact(a.r.Bank) && exact(a.r.Row)
		case Dim3:
			unit = a.u3 == 1 && exact(a.r.Die) && exact(a.r.Row)
		}
		if unit && !st.sharedIn(d, idx) {
			return true
		}
	}
	return false
}

// sharedIn reports whether a live region other than live[idx], in its
// stack, shares a dimension-d group coordinate with it.
func (st *State) sharedIn(d Dim, idx int) bool {
	a := &st.live[idx].r
	for j := range st.live {
		if j != idx && st.live[j].r.Stack == a.Stack && sharesGroup(d, a, &st.live[j].r) {
			return true
		}
	}
	return false
}

// Remove deletes one region equal to r (the engine removes faults it has
// repaired or that have been scrubbed) and returns the updated verdict. A
// correctable set stays correctable under removal (downward closure), so
// re-evaluation happens only when the set was uncorrectable. Removing a
// region not in the set is a no-op.
func (st *State) Remove(r *fault.Region) bool {
	for i := range st.live {
		if st.live[i].r == *r {
			last := len(st.live) - 1
			st.live[i] = st.live[last]
			st.live = st.live[:last]
			if st.bad {
				st.bad = st.evalFull()
			}
			return st.bad
		}
	}
	return st.bad
}

func (st *State) evalFull() bool {
	st.allIdx = st.allIdx[:0]
	for i := range st.live {
		st.allIdx = append(st.allIdx, i)
	}
	return st.peel(st.allIdx)
}

// interferes reports whether a's and b's group projections intersect in
// some enabled dimension. This is a superset of "blockedPieces non-empty in
// either direction", which is what component decomposition requires.
func (st *State) interferes(a, b *fault.Region) bool {
	if a.Stack != b.Stack {
		return false
	}
	for _, d := range st.an.dimList {
		if sharesGroup(d, a, b) {
			return true
		}
	}
	return false
}

// sharesGroup reports whether a's and b's projections intersect in
// dimension d's group coordinates: (Row, Col) for Dim1, (Die, Col) for
// Dim2, (Bank, Col) for Dim3. blockedPieces(d, a, b) is empty otherwise.
func sharesGroup(d Dim, a, b *fault.Region) bool {
	switch d {
	case Dim1:
		return a.Row.Intersects(b.Row) && a.Col.Intersects(b.Col)
	case Dim2:
		return a.Die.Intersects(b.Die) && a.Col.Intersects(b.Col)
	case Dim3:
		return a.Bank.Intersects(b.Bank) && a.Col.Intersects(b.Col)
	}
	return false
}

// componentOf gathers into st.comp the interference component containing
// live index idx, marking members in st.inComp (callers clear the marks).
func (st *State) componentOf(idx int) {
	for len(st.inComp) < len(st.live) {
		st.inComp = append(st.inComp, false)
	}
	st.comp = st.comp[:0]
	st.comp = append(st.comp, idx)
	st.inComp[idx] = true
	for qi := 0; qi < len(st.comp); qi++ {
		a := &st.live[st.comp[qi]].r
		for j := range st.live {
			if !st.inComp[j] && st.interferes(a, &st.live[j].r) {
				st.inComp[j] = true
				st.comp = append(st.comp, j)
			}
		}
	}
}

// peel runs the batch algorithm's peeling fixpoint over the given live
// indices without mutating the set: faults whose every cell is recoverable
// through some dimension are marked dead and the rest re-examined until no
// progress. Returns true iff faults remain (the set is uncorrectable).
func (st *State) peel(indices []int) bool {
	if len(indices) == 0 {
		return false
	}
	st.alive = st.alive[:0]
	for range indices {
		st.alive = append(st.alive, true)
	}
	remaining := len(indices)
	for {
		progressed := false
		for k := range indices {
			if !st.alive[k] {
				continue
			}
			if !st.lostIn(indices, k) {
				st.alive[k] = false
				remaining--
				progressed = true
			}
		}
		if remaining == 0 {
			return false
		}
		if !progressed {
			return true
		}
	}
}

// lostIn mirrors Analyzer.lost for the fault at indices[k] against the
// still-alive members of indices, building the per-dimension blocked-piece
// lists into reused buffers.
func (st *State) lostIn(indices []int, k int) bool {
	a := &st.live[indices[k]].r
	dims := st.an.dimList
	if len(dims) == 0 {
		return true
	}
	for di, d := range dims {
		buf := st.pieces[di][:0]
		for m, idx := range indices {
			if !st.alive[m] {
				continue
			}
			b := &st.live[idx]
			if b.r.Stack != a.Stack {
				continue
			}
			buf = st.an.appendBlockedPieces(buf, d, a, b)
		}
		st.pieces[di] = buf
		if len(buf) == 0 {
			// Recoverable through dimension d: no cell of a is blocked
			// there, so nothing is lost regardless of other dimensions.
			return false
		}
	}
	return st.anyComb(len(dims))
}

// anyComb is anyCombinationNonEmpty over st.pieces[:n], written without a
// closure so the recursion does not allocate.
func (st *State) anyComb(n int) bool {
	for _, piece := range st.pieces[0] {
		if st.anyCombRec(1, n, piece) {
			return true
		}
	}
	return false
}

func (st *State) anyCombRec(i, n int, acc fault.Region) bool {
	if i == n {
		return true
	}
	for _, piece := range st.pieces[i] {
		if next, ok := intersectRegion(acc, piece); ok && st.anyCombRec(i+1, n, next) {
			return true
		}
	}
	return false
}

// appendBlockedPieces is blockedPieces writing into dst, with the unit
// counts and unit coordinates taken from b's cached regionInfo.
func (an *Analyzer) appendBlockedPieces(dst []fault.Region, d Dim, a *fault.Region, b *regionInfo) []fault.Region {
	switch d {
	case Dim1:
		base := *a
		var ok bool
		if base.Row, ok = intersectPattern(a.Row, b.r.Row); !ok {
			return dst
		}
		if base.Col, ok = intersectPattern(a.Col, b.r.Col); !ok {
			return dst
		}
		if b.u1 != 1 {
			return append(dst, base)
		}
		return an.appendSplitNotUnit(dst, base, b.fd, b.fb)
	case Dim2:
		base := *a
		var ok bool
		if base.Die, ok = intersectPattern(a.Die, b.r.Die); !ok {
			return dst
		}
		if base.Col, ok = intersectPattern(a.Col, b.r.Col); !ok {
			return dst
		}
		if b.u2 != 1 {
			return append(dst, base)
		}
		return an.appendSplitNotBankRow(dst, base, b.fb, b.fr)
	case Dim3:
		base := *a
		var ok bool
		if base.Bank, ok = intersectPattern(a.Bank, b.r.Bank); !ok {
			return dst
		}
		if base.Col, ok = intersectPattern(a.Col, b.r.Col); !ok {
			return dst
		}
		if b.u3 != 1 {
			return append(dst, base)
		}
		return an.appendSplitNotDieRow(dst, base, b.fd, b.fr)
	default:
		return dst
	}
}

// The three append-variants below mirror splitNotUnit/splitNotBankRow/
// splitNotDieRow with the notExact piece loop inlined (notExact allocates a
// fresh slice per call) and the exact-pattern intersection hoisted out of
// the second loop (it does not depend on the loop variable).

func (an *Analyzer) appendSplitNotUnit(dst []fault.Region, base fault.Region, d0, b0 uint32) []fault.Region {
	for j := 0; j < an.dieBits; j++ {
		m := uint32(1) << uint(j)
		if die, ok := intersectPattern(base.Die, fault.MaskPattern(m, ^d0&m)); ok {
			r := base
			r.Die = die
			dst = append(dst, r)
		}
	}
	if die, ok := intersectPattern(base.Die, fault.ExactPattern(d0)); ok {
		for j := 0; j < an.bankBits; j++ {
			m := uint32(1) << uint(j)
			if bank, ok2 := intersectPattern(base.Bank, fault.MaskPattern(m, ^b0&m)); ok2 {
				r := base
				r.Die, r.Bank = die, bank
				dst = append(dst, r)
			}
		}
	}
	return dst
}

func (an *Analyzer) appendSplitNotBankRow(dst []fault.Region, base fault.Region, b0, r0 uint32) []fault.Region {
	for j := 0; j < an.bankBits; j++ {
		m := uint32(1) << uint(j)
		if bank, ok := intersectPattern(base.Bank, fault.MaskPattern(m, ^b0&m)); ok {
			r := base
			r.Bank = bank
			dst = append(dst, r)
		}
	}
	if bank, ok := intersectPattern(base.Bank, fault.ExactPattern(b0)); ok {
		for j := 0; j < an.rowBits; j++ {
			m := uint32(1) << uint(j)
			if row, ok2 := intersectPattern(base.Row, fault.MaskPattern(m, ^r0&m)); ok2 {
				r := base
				r.Bank, r.Row = bank, row
				dst = append(dst, r)
			}
		}
	}
	return dst
}

func (an *Analyzer) appendSplitNotDieRow(dst []fault.Region, base fault.Region, d0, r0 uint32) []fault.Region {
	for j := 0; j < an.dieBits; j++ {
		m := uint32(1) << uint(j)
		if die, ok := intersectPattern(base.Die, fault.MaskPattern(m, ^d0&m)); ok {
			r := base
			r.Die = die
			dst = append(dst, r)
		}
	}
	if die, ok := intersectPattern(base.Die, fault.ExactPattern(d0)); ok {
		for j := 0; j < an.rowBits; j++ {
			m := uint32(1) << uint(j)
			if row, ok2 := intersectPattern(base.Row, fault.MaskPattern(m, ^r0&m)); ok2 {
				r := base
				r.Die, r.Row = die, row
				dst = append(dst, r)
			}
		}
	}
	return dst
}
