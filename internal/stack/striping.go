package stack

import "fmt"

// Striping selects how the bytes of one cache line are laid out across the
// banks and channels of a stack. The choice trades reliability against
// bank-level parallelism and activation power (Citadel §II-D/E).
type Striping int

const (
	// SameBank keeps the whole cache line in a single bank. One bank is
	// activated per access: best performance and power, worst tolerance of
	// bank- and channel-granularity faults.
	SameBank Striping = iota
	// AcrossBanks stripes the line over all banks of one die (channel).
	// Every access activates all banks of the channel.
	AcrossBanks
	// AcrossChannels stripes the line over one bank in each channel of the
	// stack. Every access activates one bank in every channel.
	AcrossChannels
)

// String returns the name used in the paper's figures.
func (s Striping) String() string {
	switch s {
	case SameBank:
		return "Same-Bank"
	case AcrossBanks:
		return "Across-Banks"
	case AcrossChannels:
		return "Across-Channels"
	default:
		return fmt.Sprintf("Striping(%d)", int(s))
	}
}

// Stripings lists all layouts in presentation order.
func Stripings() []Striping { return []Striping{SameBank, AcrossBanks, AcrossChannels} }

// UnitsTouched returns the number of banks activated by one line access.
func (s Striping) UnitsTouched(c Config) int {
	switch s {
	case SameBank:
		return 1
	case AcrossBanks:
		return c.BanksPerDie
	case AcrossChannels:
		return c.Channels()
	default:
		return 1
	}
}

// Slice describes the portion of a cache line resident in one bank: the row
// coordinate plus the byte extent within that row.
type Slice struct {
	Coord     Coord // Line field is unused; RowOffset locates the bytes
	RowOffset int   // byte offset of the slice within the row
	Bytes     int   // slice length in bytes
}

// Slices maps a dense line index (see LineIndex/CoordOfLineIndex) to the set
// of per-bank slices that hold it under striping s: Layout.Span expanded
// into coordinates. SameBank returns one full-line slice whose Coord keeps
// the line; the striped layouts return one slice per touched bank.
func (c Config) Slices(s Striping, lineIdx int64) []Slice {
	l := c.Layout(s)
	co := c.CoordOfLineIndex(lineIdx)
	sp := l.Span(co)
	out := make([]Slice, sp.N)
	for i := range out {
		ch := sp.Chan0 + i*sp.ChanStride
		out[i] = Slice{
			Coord: Coord{
				Stack: ch / c.Channels(),
				Die:   ch % c.Channels(),
				Bank:  sp.Bank0 + i*sp.BankStride - ch*c.BanksPerDie,
				Row:   sp.Row,
			},
			RowOffset: sp.RowOffset,
			Bytes:     sp.Bytes,
		}
	}
	if s == SameBank {
		out[0].Coord.Line = co.Line
	}
	return out
}

// TSVForBit returns the data-TSV index that carries the given bit position
// (0-based within the line) of every cache line in a channel. With 256 data
// TSVs and a 512-bit line, TSV t carries bits t and t+256.
func (c Config) TSVForBit(bit int) int { return bit % c.DataTSVs }

// BitsOnTSV returns the line bit positions carried by data TSV t.
func (c Config) BitsOnTSV(t int) []int {
	n := c.BitsPerTSVPerLine()
	bits := make([]int, 0, n)
	for beat := 0; beat < n; beat++ {
		bits = append(bits, t+beat*c.DataTSVs)
	}
	return bits
}

// InterleaveLine maps a dense workload line address onto stack coordinates
// with the channel-interleaved layout of Layout.Interleave. Hot loops
// compile a Layout once instead.
func (c Config) InterleaveLine(addr uint64) Coord {
	l := c.Layout(SameBank)
	return l.Interleave(addr)
}
