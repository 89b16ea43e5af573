package stack

import "fmt"

// Layout is a Config's address mapping compiled for one striping: the
// geometry held as unsigned fields, so that mapping a line costs only the
// divisions the mapping itself needs. Timing models build one per run
// with Config.Layout and call its methods through a pointer on every
// request, instead of copying the Config and round-tripping each line
// through a dense line index.
type Layout struct {
	striping Striping
	// Geometry: lines per row, rows per bank, banks per die, channels
	// (data dies) per stack, and stacks.
	lpr, rows, banks, chans, stacks uint64
	lineBytes                       int
	// n is the number of banks one access touches, sliceBytes the bytes
	// each of them holds, and rowSetLines the lines one row set holds
	// (n rows' worth) under the striped layouts.
	n, sliceBytes int
	rowSetLines   uint64
}

// Span describes the banks holding one cache line under a striping: N
// slices in dense bank ids Bank0, Bank0+BankStride, ... on dense channel
// ids Chan0, Chan0+ChanStride, ... (see Config.BankID; a channel's dense
// id is Stack*Channels()+Die). Every slice sits in row Row at byte offset
// RowOffset and is Bytes long.
type Span struct {
	Bank0, BankStride int
	Chan0, ChanStride int
	N                 int
	Row               int
	RowOffset, Bytes  int
}

// Layout compiles the address mapping of c under striping s. It panics
// on an unknown striping.
func (c Config) Layout(s Striping) Layout {
	switch s {
	case SameBank, AcrossBanks, AcrossChannels:
	default:
		panic(fmt.Sprintf("stack: unknown striping %d", int(s)))
	}
	n := s.UnitsTouched(c)
	return Layout{
		striping:    s,
		lpr:         uint64(c.LinesPerRow()),
		rows:        uint64(c.RowsPerBank),
		banks:       uint64(c.BanksPerDie),
		chans:       uint64(c.Channels()),
		stacks:      uint64(c.Stacks),
		lineBytes:   c.LineBytes,
		n:           n,
		sliceBytes:  c.LineBytes / n,
		rowSetLines: uint64(n * c.RowBytes / c.LineBytes),
	}
}

// Interleave maps a dense workload line address onto stack coordinates
// with the channel-interleaved, diagonally permuted layout a performance-
// oriented controller uses: consecutive DRAM rows spread first across
// channels, then banks, then stacks, with the bank digit folded into the
// channel digit so pages spread over all channels (footnote-4-style bit
// swapping). Addresses beyond the system wrap around its rows. Both
// timing models share this mapping.
func (l *Layout) Interleave(addr uint64) Coord {
	slot := addr % l.lpr
	rowGroup := addr / l.lpr
	die := rowGroup % l.chans
	rowGroup /= l.chans
	bank := rowGroup % l.banks
	rowGroup /= l.banks
	die = (die + bank) % l.chans
	stk := rowGroup % l.stacks
	rowGroup /= l.stacks
	row := rowGroup % l.rows
	return Coord{
		Stack: int(stk),
		Die:   int(die),
		Bank:  int(bank),
		Row:   int(row),
		Line:  int(slot),
	}
}

// Span returns the banks holding the line at co. Same-Bank keeps the
// line in co's own bank. The striped layouts number the lines of a die
// (Across-Banks) or stack (Across-Channels) densely and give every line
// an equal slice of each bank in a row set — the rows with one row index
// in every striped bank — so a row set holds n rows' worth of lines.
func (l *Layout) Span(co Coord) Span {
	ch := co.Stack*int(l.chans) + co.Die
	switch l.striping {
	case SameBank:
		return Span{
			Bank0: ch*int(l.banks) + co.Bank, Chan0: ch, N: 1,
			Row: co.Row, RowOffset: co.Line * l.lineBytes, Bytes: l.lineBytes,
		}
	case AcrossBanks:
		within := (uint64(co.Bank)*l.rows+uint64(co.Row))*l.lpr + uint64(co.Line)
		return Span{
			Bank0: ch * int(l.banks), BankStride: 1, Chan0: ch, N: l.n,
			Row:       int(within / l.rowSetLines),
			RowOffset: int(within%l.rowSetLines) * l.sliceBytes, Bytes: l.sliceBytes,
		}
	default: // AcrossChannels; Config.Layout rejects the rest
		within := ((uint64(co.Die)*l.banks+uint64(co.Bank))*l.rows+uint64(co.Row))*l.lpr + uint64(co.Line)
		set := within / l.rowSetLines
		chan0 := co.Stack * int(l.chans)
		return Span{
			Bank0:      chan0*int(l.banks) + int(set/l.rows%l.banks),
			BankStride: int(l.banks), Chan0: chan0, ChanStride: 1, N: l.n,
			Row:       int(set % l.rows),
			RowOffset: int(within%l.rowSetLines) * l.sliceBytes, Bytes: l.sliceBytes,
		}
	}
}
