package stack

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refInterleaveLine is the interleave arithmetic as it stood before
// Layout existed, kept verbatim as the reference for Layout.Interleave.
func refInterleaveLine(c Config, addr uint64) Coord {
	lpr := uint64(c.LinesPerRow())
	slot := addr % lpr
	rowGroup := addr / lpr
	die := rowGroup % uint64(c.Channels())
	rowGroup /= uint64(c.Channels())
	bank := rowGroup % uint64(c.BanksPerDie)
	rowGroup /= uint64(c.BanksPerDie)
	die = (die + bank) % uint64(c.Channels())
	stk := rowGroup % uint64(c.Stacks)
	rowGroup /= uint64(c.Stacks)
	row := rowGroup % uint64(c.RowsPerBank)
	return Coord{Stack: int(stk), Die: int(die), Bank: int(bank), Row: int(row), Line: int(slot)}
}

// refAppendSlices is the striping arithmetic as it stood before Layout
// existed, kept verbatim as the reference for Layout.Span and Slices.
func refAppendSlices(c Config, dst []Slice, s Striping, lineIdx int64) []Slice {
	co := c.CoordOfLineIndex(lineIdx)
	switch s {
	case SameBank:
		return append(dst, Slice{Coord: co, RowOffset: co.Line * c.LineBytes, Bytes: c.LineBytes})
	case AcrossBanks:
		n := c.BanksPerDie
		sliceBytes := c.LineBytes / n
		within := (int64(co.Bank)*int64(c.RowsPerBank)+int64(co.Row))*int64(c.LinesPerRow()) + int64(co.Line)
		linesPerRowSet := int64(n * c.RowBytes / c.LineBytes)
		row := int(within / linesPerRowSet)
		slot := int(within % linesPerRowSet)
		for b := 0; b < n; b++ {
			dst = append(dst, Slice{
				Coord:     Coord{Stack: co.Stack, Die: co.Die, Bank: b, Row: row},
				RowOffset: slot * sliceBytes,
				Bytes:     sliceBytes,
			})
		}
		return dst
	case AcrossChannels:
		n := c.Channels()
		sliceBytes := c.LineBytes / n
		within := ((int64(co.Die)*int64(c.BanksPerDie)+int64(co.Bank))*int64(c.RowsPerBank)+int64(co.Row))*int64(c.LinesPerRow()) + int64(co.Line)
		linesPerRowSet := int64(n * c.RowBytes / c.LineBytes)
		set := within / linesPerRowSet
		slot := int(within % linesPerRowSet)
		bank := int(set / int64(c.RowsPerBank) % int64(c.BanksPerDie))
		row := int(set % int64(c.RowsPerBank))
		for d := 0; d < n; d++ {
			dst = append(dst, Slice{
				Coord:     Coord{Stack: co.Stack, Die: d, Bank: bank, Row: row},
				RowOffset: slot * sliceBytes,
				Bytes:     sliceBytes,
			})
		}
		return dst
	default:
		panic(fmt.Sprintf("stack: unknown striping %d", int(s)))
	}
}

// spanOf expands a Span into (dense bank, dense channel, row, offset,
// bytes) tuples, the form a timing model consumes.
func spanOf(sp Span) [][5]int {
	out := make([][5]int, sp.N)
	for i := range out {
		out[i] = [5]int{sp.Bank0 + i*sp.BankStride, sp.Chan0 + i*sp.ChanStride, sp.Row, sp.RowOffset, sp.Bytes}
	}
	return out
}

// refSpanOf is spanOf computed from the reference slices.
func refSpanOf(c Config, slices []Slice) [][5]int {
	out := make([][5]int, len(slices))
	for i, sl := range slices {
		out[i] = [5]int{c.BankID(sl.Coord), sl.Coord.Stack*c.Channels() + sl.Coord.Die, sl.Coord.Row, sl.RowOffset, sl.Bytes}
	}
	return out
}

// TestLayoutMatchesReference checks Layout.Interleave, Layout.Span and
// Slices against the pre-Layout arithmetic on every organization plus a
// geometry with no power-of-two factor, at random and boundary addresses
// (addresses past TotalLines included).
func TestLayoutMatchesReference(t *testing.T) {
	odd := Config{Stacks: 3, DataDies: 3, ECCDies: 1, BanksPerDie: 5, RowsPerBank: 1000,
		RowBytes: 1536, LineBytes: 64, DataTSVs: 256, AddrTSVs: 24, BurstLength: 2}
	orgs := append(Organizations(), Organization{Name: "3x3x5", Config: odd})
	for _, org := range orgs {
		c := org.Config
		total := c.TotalLines()
		rng := rand.New(rand.NewSource(1))
		addrs := []uint64{0, 1, uint64(c.LinesPerRow()) - 1, uint64(c.LinesPerRow()),
			uint64(total) - 1, uint64(total), uint64(total) + 1, 2*uint64(total) + 7,
			math.MaxUint64 - 1, math.MaxUint64}
		for i := 0; i < 2000; i++ {
			addrs = append(addrs, uint64(rng.Int63n(2*total)), rng.Uint64())
		}
		for _, s := range Stripings() {
			t.Run(org.Name+"/"+s.String(), func(t *testing.T) {
				l := c.Layout(s)
				for _, addr := range addrs {
					co := l.Interleave(addr)
					if want := refInterleaveLine(c, addr); co != want {
						t.Fatalf("Interleave(%d) = %v, want %v", addr, co, want)
					}
					if got := c.InterleaveLine(addr); got != co {
						t.Fatalf("InterleaveLine(%d) = %v, want %v", addr, got, co)
					}
					// The timing models' path: interleaved coordinate to span.
					ref := refAppendSlices(c, nil, s, c.LineIndex(co))
					if got, want := spanOf(l.Span(co)), refSpanOf(c, ref); !reflect.DeepEqual(got, want) {
						t.Fatalf("Span(%v) = %v, want %v", co, got, want)
					}
					// Dense line indices, including ones past the system.
					idx := int64(addr % uint64(2*total))
					ref = refAppendSlices(c, nil, s, idx)
					if got := c.Slices(s, idx); !reflect.DeepEqual(got, ref) {
						t.Fatalf("Slices(%d) = %v, want %v", idx, got, ref)
					}
					if got, want := spanOf(l.Span(c.CoordOfLineIndex(idx))), refSpanOf(c, ref); !reflect.DeepEqual(got, want) {
						t.Fatalf("Span(CoordOfLineIndex(%d)) = %v, want %v", idx, got, want)
					}
				}
			})
		}
	}
}

func TestLayoutUnknownStripingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Layout accepted an unknown striping")
		}
	}()
	DefaultConfig().Layout(Striping(7))
}

// spanSink keeps the benchmarked mapping from being optimized away.
var spanSink Span

// BenchmarkLayoutSpan measures one interleave plus span per line, the
// timing model's per-access mapping.
func BenchmarkLayoutSpan(b *testing.B) {
	c := DefaultConfig()
	for _, s := range Stripings() {
		b.Run(s.String(), func(b *testing.B) {
			l := c.Layout(s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spanSink = l.Span(l.Interleave(uint64(i) * 997))
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lines/s")
		})
	}
}
