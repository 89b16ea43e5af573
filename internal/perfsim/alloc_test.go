package perfsim

import (
	"fmt"
	"testing"

	"repro/internal/stack"
	"repro/internal/workload"
)

// TestAccessSlicesNoAlloc pins the hot-path contract: an access allocates
// nothing regardless of striping, since every simulated request maps its
// line through here.
func TestAccessSlicesNoAlloc(t *testing.T) {
	for _, striping := range []stack.Striping{stack.SameBank, stack.AcrossBanks, stack.AcrossChannels} {
		t.Run(striping.String(), func(t *testing.T) {
			s := newSim(prof(t, "mcf"), runCfg(striping, Overheads{}, 0))
			var at float64
			var addr uint64
			allocs := testing.AllocsPerRun(200, func() {
				addr += 997
				at = s.accessSlices(s.layout.Interleave(addr), at, false, false)
			})
			if allocs != 0 {
				t.Fatalf("accessSlices allocates %.1f per access, want 0", allocs)
			}
		})
	}
}

// TestServeNoAlloc extends the contract to the whole per-request path: a
// demand read and a 3DP writeback (read-before-write plus the parity
// line, cached or in place) allocate nothing, metrics staging included.
func TestServeNoAlloc(t *testing.T) {
	p := prof(t, "mcf")
	for _, striping := range []stack.Striping{stack.SameBank, stack.AcrossBanks, stack.AcrossChannels} {
		for _, ov := range []Overheads{Citadel3DP(0.5), Citadel3DPNoCache()} {
			t.Run(fmt.Sprintf("%v/cache=%v", striping, ov.ParityCaching), func(t *testing.T) {
				s := newSim(p, runCfg(striping, ov, 0))
				lines := uint64(s.cfg.Stack.TotalLines())
				read := workload.Request{Core: 1}
				wb := workload.Request{Core: 2, Write: true}
				s.serve(read)
				s.serve(wb)
				var i uint64
				allocs := testing.AllocsPerRun(200, func() {
					i++
					read.LineAddr = i * 997 % lines
					read.ICount += 50
					wb.LineAddr = i * 991 % lines
					s.serve(read)
					s.serve(wb)
				})
				if allocs != 0 {
					t.Fatalf("serve allocates %.1f per read+writeback, want 0", allocs)
				}
				if s.stats.Reads == 0 || s.stats.ParityUpdates == 0 {
					t.Fatalf("reads=%d parity updates=%d, want both served", s.stats.Reads, s.stats.ParityUpdates)
				}
			})
		}
	}
}

// BenchmarkAccessSlices measures the per-access cost of the line-mapping
// hot path, interleave included; it must not allocate.
func BenchmarkAccessSlices(b *testing.B) {
	for _, striping := range []stack.Striping{stack.SameBank, stack.AcrossBanks, stack.AcrossChannels} {
		b.Run(striping.String(), func(b *testing.B) {
			p, _ := workload.ByName("mcf")
			s := newSim(p, runCfg(striping, Overheads{}, 0))
			var at float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at = s.accessSlices(s.layout.Interleave(uint64(i)*997), at, false, false)
			}
		})
	}
}
