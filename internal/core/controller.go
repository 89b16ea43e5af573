package core

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/stack"
)

// ErrDataLoss is returned when a line cannot be reconstructed through any
// parity dimension.
var ErrDataLoss = errors.New("core: uncorrectable data loss")

// Metadata is the 64-bit per-line metadata Citadel stores in the ECC die
// (Figure 6): 32 bits of CRC, 8 bits of TSV swap data, 24 bits for sparing.
type Metadata struct {
	CRC32 uint32
	// SwapBits replicates the bits carried by the stand-by TSVs.
	SwapBits uint8
	// Spare carries the sparing indirection hint (modeled by the RRT/BRT
	// tables below; kept for layout fidelity).
	Spare uint32 // 24 bits used
}

// Stats counts controller events.
type Stats struct {
	Reads, Writes        uint64
	CRCMismatches        uint64
	TSVRepairs           uint64
	Corrections          uint64
	CorrectionsByDim     [3]uint64
	RowsSpared           uint64
	BanksSpared          uint64
	Uncorrectable        uint64
	ParityReconstruction uint64 // lines read during reconstruction
}

// bankID identifies a bank for the sparing tables.
type bankID struct{ stack, die, bank int }

// rowID identifies a row.
type rowID struct {
	bankID
	row int
}

// Controller is the Citadel memory controller: it owns the metadata,
// maintains 3DP parity, runs TSV-SWAP, and performs DDS sparing.
type Controller struct {
	cfg stack.Config
	mem *SimStack

	meta map[int64]Metadata

	// 3DP parity state. Dimension 1 is the parity bank (one line per
	// (stack, row, slot)); Dimensions 2 and 3 are the on-chip parity rows.
	dim1 map[[3]int][]byte // (stack,row,slot) -> parity line
	dim2 map[[2]int][]byte // (stack,die)      -> parity row
	dim3 map[[2]int][]byte // (stack,bankIdx)  -> parity row

	// DDS state.
	rrt          map[rowID]int  // faulty row -> spare row index in fine bank
	brt          map[bankID]int // faulty bank -> spare bank slot (0 or 1)
	rowsPerBank  map[bankID]int // spared-row count per bank
	nextSpareRow map[int]int    // per-stack allocation cursor in fine bank
	maxSpareRows int
	spareBanks   int

	stats Stats
}

// Spare-area layout within the metadata die (paper §VII-C): the last three
// banks hold the two coarse spare banks and the fine-grained row bank.
func (c *Controller) spareBankCoarse(slot int) int { return c.cfg.BanksPerDie - 3 + slot }
func (c *Controller) spareBankFine() int           { return c.cfg.BanksPerDie - 1 }
func (c *Controller) metaDie() int                 { return c.cfg.DataDies }

// NewController builds a Citadel controller over a fresh stack.
func NewController(cfg stack.Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ECCDies < 1 {
		return nil, errors.New("core: Citadel needs a metadata die (ECCDies >= 1)")
	}
	if cfg.BanksPerDie < 4 {
		return nil, errors.New("core: metadata die needs >= 4 banks (3 for sparing)")
	}
	return &Controller{
		cfg:          cfg,
		mem:          NewSimStack(cfg),
		meta:         make(map[int64]Metadata),
		dim1:         make(map[[3]int][]byte),
		dim2:         make(map[[2]int][]byte),
		dim3:         make(map[[2]int][]byte),
		rrt:          make(map[rowID]int),
		brt:          make(map[bankID]int),
		rowsPerBank:  make(map[bankID]int),
		nextSpareRow: make(map[int]int),
		maxSpareRows: 4,
		spareBanks:   2,
	}, nil
}

// Config returns the geometry.
func (c *Controller) Config() stack.Config { return c.cfg }

// Stats returns a copy of the event counters.
func (c *Controller) Stats() Stats { return c.stats }

// Memory exposes the backing stack for fault injection.
func (c *Controller) Memory() *SimStack { return c.mem }

// InjectFault introduces a fault into the physical stack.
func (c *Controller) InjectFault(f fault.Fault) { c.mem.Inject(f) }

// resolve applies DDS redirection: spared banks first, then spared rows.
func (c *Controller) resolve(co stack.Coord) stack.Coord {
	b := bankID{co.Stack, co.Die, co.Bank}
	if slot, ok := c.brt[b]; ok {
		return stack.Coord{
			Stack: co.Stack, Die: c.metaDie(), Bank: c.spareBankCoarse(slot),
			Row: co.Row, Line: co.Line,
		}
	}
	if spare, ok := c.rrt[rowID{b, co.Row}]; ok {
		return stack.Coord{
			Stack: co.Stack, Die: c.metaDie(), Bank: c.spareBankFine(),
			Row: spare, Line: co.Line,
		}
	}
	return co
}

// readResolved reads through redirection, applying fault effects.
func (c *Controller) readResolved(co stack.Coord) ([]byte, error) {
	r := c.resolve(co)
	return c.mem.readAny(r)
}

// readAny is ReadRaw extended to the metadata die.
func (s *SimStack) readAny(co stack.Coord) ([]byte, error) {
	if co.Die == s.cfg.DataDies { // metadata die: bypass Valid's data-die bound
		saved := co
		out := make([]byte, s.cfg.LineBytes)
		if stored, ok := s.data[keyOf(saved)]; ok {
			copy(out, stored)
		}
		return out, nil
	}
	return s.ReadRaw(co)
}

// writeAny is WriteRaw extended to the metadata die.
func (s *SimStack) writeAny(co stack.Coord, data []byte) error {
	if co.Die == s.cfg.DataDies {
		buf := make([]byte, len(data))
		copy(buf, data)
		s.data[keyOf(co)] = buf
		return nil
	}
	return s.WriteRaw(co, data)
}

// stored returns the logical (uncorrupted) content of a line.
func (s *SimStack) stored(co stack.Coord) []byte {
	out := make([]byte, s.cfg.LineBytes)
	if v, ok := s.data[keyOf(co)]; ok {
		copy(out, v)
	}
	return out
}

// Write stores a 64-byte line at the dense line index, maintaining CRC
// metadata and all three parity dimensions.
func (c *Controller) Write(idx int64, data []byte) error {
	if len(data) != c.cfg.LineBytes {
		return fmt.Errorf("core: line must be %d bytes", c.cfg.LineBytes)
	}
	if idx < 0 || idx >= c.cfg.TotalLines() {
		return fmt.Errorf("core: line index %d out of range", idx)
	}
	co := c.cfg.CoordOfLineIndex(idx)
	c.stats.Writes++
	// Read-before-write of the logical value for the parity delta
	// (Figure 12, action 2).
	old := c.mem.stored(c.resolve(co))
	delta := make([]byte, len(data))
	for i := range delta {
		delta[i] = old[i] ^ data[i]
	}
	c.applyParityDelta(co, delta)
	if err := c.mem.writeAny(c.resolve(co), data); err != nil {
		return err
	}
	c.meta[idx] = Metadata{
		CRC32:    lineCRC(uint64(idx), data),
		SwapBits: c.swapBits(data),
	}
	return nil
}

// swapBits extracts the line bits carried by the stand-by TSVs (paper
// Figure 6: the 8-bit "swap data" field). When TSV-SWAP redirects a
// stand-by TSV to carry a faulty TSV's traffic, the stand-by's own bits
// are served from this replica instead of the wire.
func (c *Controller) swapBits(data []byte) uint8 {
	var out uint8
	n := 4 // stand-by pool size
	for i := 0; i < n; i++ {
		t := i * c.cfg.DataTSVs / n
		for beat, bit := range c.cfg.BitsOnTSV(t) {
			if beat >= 2 {
				break // 8 bits total: 2 beats x 4 stand-by TSVs
			}
			if data[bit/8]>>(uint(bit)%8)&1 == 1 {
				out |= 1 << uint(i*2+beat)
			}
		}
	}
	return out
}

// SwapDataConsistent verifies the invariant that every line's metadata
// swap-data replica matches its stored stand-by-TSV bits (used by tests
// and the scrubber's self-check).
func (c *Controller) SwapDataConsistent() bool {
	for idx, md := range c.meta {
		co := c.cfg.CoordOfLineIndex(idx)
		stored := c.mem.stored(c.resolve(co))
		if c.swapBits(stored) != md.SwapBits {
			return false
		}
	}
	return true
}

// applyParityDelta XORs a line's change into all three dimensions.
func (c *Controller) applyParityDelta(co stack.Coord, delta []byte) {
	lb := c.cfg.LineBytes
	d1 := c.parityLine1(co.Stack, co.Row, co.Line)
	for i := range delta {
		d1[i] ^= delta[i]
	}
	off := co.Line * lb
	d2 := c.parityRow2(co.Stack, co.Die)
	d3 := c.parityRow3(co.Stack, co.Bank)
	for i := range delta {
		d2[off+i] ^= delta[i]
		d3[off+i] ^= delta[i]
	}
}

func (c *Controller) parityLine1(stk, row, slot int) []byte {
	key := [3]int{stk, row, slot}
	p := c.dim1[key]
	if p == nil {
		p = make([]byte, c.cfg.LineBytes)
		c.dim1[key] = p
	}
	return p
}

func (c *Controller) parityRow2(stk, die int) []byte {
	key := [2]int{stk, die}
	p := c.dim2[key]
	if p == nil {
		p = make([]byte, c.cfg.RowBytes)
		c.dim2[key] = p
	}
	return p
}

func (c *Controller) parityRow3(stk, bank int) []byte {
	key := [2]int{stk, bank}
	p := c.dim3[key]
	if p == nil {
		p = make([]byte, c.cfg.RowBytes)
		c.dim3[key] = p
	}
	return p
}

// Read fetches a line, running the full Citadel pipeline on a CRC
// mismatch: TSV detection and swap, then 3DP reconstruction, then DDS
// sparing of permanently faulty regions.
func (c *Controller) Read(idx int64) ([]byte, error) {
	if idx < 0 || idx >= c.cfg.TotalLines() {
		return nil, fmt.Errorf("core: line index %d out of range", idx)
	}
	co := c.cfg.CoordOfLineIndex(idx)
	c.stats.Reads++
	md, hasMeta := c.meta[idx]
	raw, err := c.readResolved(co)
	if err != nil {
		return nil, err
	}
	if !hasMeta {
		// Never written: zeros with no metadata are returned as-is.
		return raw, nil
	}
	if lineCRC(uint64(idx), raw) == md.CRC32 {
		return raw, nil
	}
	c.stats.CRCMismatches++

	// Step 1: TSV detection and swap (paper §V-C). The fixed-row probe is
	// modeled by asking the stack whether unrepaired TSV faults exist on
	// this channel; if so, BIST identifies and the TRR redirects them.
	if c.repairTSVs(co.Stack, co.Die) {
		raw, err = c.readResolved(co)
		if err == nil && lineCRC(uint64(idx), raw) == md.CRC32 {
			return raw, nil
		}
	}

	// Step 2: 3DP reconstruction.
	data, dim := c.reconstruct(idx, co, md.CRC32)
	if data == nil {
		c.stats.Uncorrectable++
		return nil, fmt.Errorf("%w: line %d", ErrDataLoss, idx)
	}
	c.stats.Corrections++
	c.stats.CorrectionsByDim[dim-1]++

	// Step 3: write the recovered data back; if the cells are permanently
	// faulty, DDS spares the row (or escalates to the bank) so the slow
	// correction path is not taken again.
	loc := c.resolve(co)
	if loc.Die < c.cfg.DataDies && c.mem.lineFaulty(loc) {
		c.spare(co, idx, data)
	} else {
		_ = c.mem.writeAny(loc, data)
	}
	return data, nil
}

// repairTSVs runs BIST + TSV-SWAP for a channel; reports whether any
// repair happened. The swap budget is the stand-by pool's transfer beats.
func (c *Controller) repairTSVs(stk, die int) bool {
	budget := 4 * c.cfg.BurstLength // 4 stand-by TSVs
	repaired := false
	for i := range c.mem.faults {
		f := &c.mem.faults[i]
		if !f.Class.IsTSV() || c.mem.tsvRepaired[i] {
			continue
		}
		if f.Region.Stack != stk || !f.Region.Die.Contains(uint32(die)) {
			continue
		}
		cost := 1
		if f.Class == fault.DataTSV {
			cost = c.cfg.BurstLength
		}
		if budget < cost {
			continue
		}
		budget -= cost
		c.mem.MarkRepaired(i)
		c.stats.TSVRepairs++
		repaired = true
	}
	return repaired
}

// reconstruct attempts recovery through each dimension in turn, returning
// the recovered data and the dimension (1-3) that worked.
func (c *Controller) reconstruct(idx int64, co stack.Coord, want uint32) ([]byte, int) {
	if data := c.reconstructDim1(co); data != nil && lineCRC(uint64(idx), data) == want {
		return data, 1
	}
	if data := c.reconstructDim2(co); data != nil && lineCRC(uint64(idx), data) == want {
		return data, 2
	}
	if data := c.reconstructDim3(co); data != nil && lineCRC(uint64(idx), data) == want {
		return data, 3
	}
	return nil, 0
}

// reconstructDim1 XORs the Dimension-1 parity line with every other
// (die, bank) member of the group.
func (c *Controller) reconstructDim1(co stack.Coord) []byte {
	out := make([]byte, c.cfg.LineBytes)
	copy(out, c.parityLine1(co.Stack, co.Row, co.Line))
	for die := 0; die < c.cfg.DataDies; die++ {
		for bank := 0; bank < c.cfg.BanksPerDie; bank++ {
			if die == co.Die && bank == co.Bank {
				continue
			}
			member := stack.Coord{Stack: co.Stack, Die: die, Bank: bank, Row: co.Row, Line: co.Line}
			raw, err := c.readResolved(member)
			if err != nil {
				return nil
			}
			c.stats.ParityReconstruction++
			for i := range out {
				out[i] ^= raw[i]
			}
		}
	}
	return out
}

// reconstructDim2 recovers via the within-die parity row.
func (c *Controller) reconstructDim2(co stack.Coord) []byte {
	lb := c.cfg.LineBytes
	off := co.Line * lb
	out := make([]byte, lb)
	copy(out, c.parityRow2(co.Stack, co.Die)[off:off+lb])
	for bank := 0; bank < c.cfg.BanksPerDie; bank++ {
		for row := 0; row < c.cfg.RowsPerBank; row++ {
			if bank == co.Bank && row == co.Row {
				continue
			}
			member := stack.Coord{Stack: co.Stack, Die: co.Die, Bank: bank, Row: row, Line: co.Line}
			raw, err := c.readResolved(member)
			if err != nil {
				return nil
			}
			c.stats.ParityReconstruction++
			for i := range out {
				out[i] ^= raw[i]
			}
		}
	}
	return out
}

// reconstructDim3 recovers via the same-bank-index-across-dies parity row.
func (c *Controller) reconstructDim3(co stack.Coord) []byte {
	lb := c.cfg.LineBytes
	off := co.Line * lb
	out := make([]byte, lb)
	copy(out, c.parityRow3(co.Stack, co.Bank)[off:off+lb])
	for die := 0; die < c.cfg.DataDies; die++ {
		for row := 0; row < c.cfg.RowsPerBank; row++ {
			if die == co.Die && row == co.Row {
				continue
			}
			member := stack.Coord{Stack: co.Stack, Die: die, Bank: co.Bank, Row: row, Line: co.Line}
			raw, err := c.readResolved(member)
			if err != nil {
				return nil
			}
			c.stats.ParityReconstruction++
			for i := range out {
				out[i] ^= raw[i]
			}
		}
	}
	return out
}

// spare redirects the faulty row (or, past the row budget, the whole bank)
// into the metadata die's spare area and installs the recovered data.
func (c *Controller) spare(co stack.Coord, idx int64, data []byte) {
	b := bankID{co.Stack, co.Die, co.Bank}
	if c.rowsPerBank[b] < c.maxSpareRows {
		// Fine-grained: remap this row.
		spareRow := c.nextSpareRow[co.Stack]
		c.nextSpareRow[co.Stack]++
		if spareRow >= c.cfg.RowsPerBank {
			return // fine bank exhausted; fall back to correction-on-read
		}
		c.rrt[rowID{b, co.Row}] = spareRow
		c.rowsPerBank[b]++
		c.stats.RowsSpared++
		// Migrate the whole row: recovered line plus the row's other lines.
		for l := 0; l < c.cfg.LinesPerRow(); l++ {
			src := stack.Coord{Stack: co.Stack, Die: co.Die, Bank: co.Bank, Row: co.Row, Line: l}
			dst := stack.Coord{Stack: co.Stack, Die: c.metaDie(), Bank: c.spareBankFine(), Row: spareRow, Line: l}
			if l == co.Line {
				_ = c.mem.writeAny(dst, data)
				continue
			}
			li := c.cfg.LineIndex(src)
			v, err := c.recoverForMigration(li, src)
			if err == nil {
				_ = c.mem.writeAny(dst, v)
			}
		}
		return
	}
	// Coarse-grained: escalate to a spare bank.
	if len(c.brtForStack(co.Stack)) >= c.spareBanks {
		return // spare banks exhausted
	}
	slot := len(c.brtForStack(co.Stack))
	c.brt[b] = slot
	c.stats.BanksSpared++
	// Migrate every line of the bank.
	for row := 0; row < c.cfg.RowsPerBank; row++ {
		for l := 0; l < c.cfg.LinesPerRow(); l++ {
			src := stack.Coord{Stack: co.Stack, Die: co.Die, Bank: co.Bank, Row: row, Line: l}
			dst := stack.Coord{Stack: co.Stack, Die: c.metaDie(), Bank: c.spareBankCoarse(slot), Row: row, Line: l}
			if row == co.Row && l == co.Line {
				_ = c.mem.writeAny(dst, data)
				continue
			}
			li := c.cfg.LineIndex(src)
			v, err := c.recoverForMigration(li, src)
			if err == nil {
				_ = c.mem.writeAny(dst, v)
			}
		}
	}
}

// brtForStack lists the banks currently spared in one stack.
func (c *Controller) brtForStack(stk int) []bankID {
	var out []bankID
	for b := range c.brt {
		if b.stack == stk {
			out = append(out, b)
		}
	}
	return out
}

// ParityConsistent verifies the 3DP invariant: every Dimension-1 parity
// line equals the XOR of its group's stored lines, and the Dimension-2/3
// parity rows equal the XOR of their members. Used by tests and as a
// debugging aid.
func (c *Controller) ParityConsistent() bool {
	cfg := c.cfg
	lb := cfg.LineBytes
	// Dimension 1.
	for key, p := range c.dim1 {
		stk, row, slot := key[0], key[1], key[2]
		want := make([]byte, lb)
		for die := 0; die < cfg.DataDies; die++ {
			for bank := 0; bank < cfg.BanksPerDie; bank++ {
				co := stack.Coord{Stack: stk, Die: die, Bank: bank, Row: row, Line: slot}
				v := c.mem.stored(c.resolve(co))
				for i := range want {
					want[i] ^= v[i]
				}
			}
		}
		for i := range want {
			if want[i] != p[i] {
				return false
			}
		}
	}
	// Dimensions 2 and 3.
	for key, p := range c.dim2 {
		stk, die := key[0], key[1]
		want := make([]byte, cfg.RowBytes)
		for bank := 0; bank < cfg.BanksPerDie; bank++ {
			for row := 0; row < cfg.RowsPerBank; row++ {
				for l := 0; l < cfg.LinesPerRow(); l++ {
					co := stack.Coord{Stack: stk, Die: die, Bank: bank, Row: row, Line: l}
					v := c.mem.stored(c.resolve(co))
					off := l * lb
					for i := range v {
						want[off+i] ^= v[i]
					}
				}
			}
		}
		for i := range want {
			if want[i] != p[i] {
				return false
			}
		}
	}
	for key, p := range c.dim3 {
		stk, bank := key[0], key[1]
		want := make([]byte, cfg.RowBytes)
		for die := 0; die < cfg.DataDies; die++ {
			for row := 0; row < cfg.RowsPerBank; row++ {
				for l := 0; l < cfg.LinesPerRow(); l++ {
					co := stack.Coord{Stack: stk, Die: die, Bank: bank, Row: row, Line: l}
					v := c.mem.stored(c.resolve(co))
					off := l * lb
					for i := range v {
						want[off+i] ^= v[i]
					}
				}
			}
		}
		for i := range want {
			if want[i] != p[i] {
				return false
			}
		}
	}
	return true
}

// Scrub performs a maintenance pass (the paper's 12-hour scrubber): every
// written line is read — correcting and sparing as needed — and transient
// faults are then cleared from the physical state. It returns the number
// of lines that could not be recovered.
func (c *Controller) Scrub() int {
	lost := 0
	for idx := range c.meta {
		if _, err := c.Read(idx); err != nil {
			lost++
		}
	}
	c.mem.ClearTransientFaults()
	return lost
}

// recoverForMigration fetches a line's correct value during sparing: the
// raw read if its CRC passes, else a 3DP reconstruction.
func (c *Controller) recoverForMigration(idx int64, co stack.Coord) ([]byte, error) {
	raw, err := c.mem.readAny(co)
	if err != nil {
		return nil, err
	}
	md, ok := c.meta[idx]
	if !ok || lineCRC(uint64(idx), raw) == md.CRC32 {
		return raw, nil
	}
	data, _ := c.reconstruct(idx, co, md.CRC32)
	if data == nil {
		return nil, ErrDataLoss
	}
	return data, nil
}
