package dramsim

import (
	"repro/internal/stack"
	"repro/internal/workload"
)

// System is a whole stacked-memory system at command level: one Channel per
// (stack, die), with line accesses fanned out to the banks selected by the
// striping layout. It provides an independent, command-granularity check of
// the striping results the coarse queueing model produces (Figure 5).
type System struct {
	cfg      stack.Config
	timing   Timing
	channels []*Channel
}

// NewSystem builds the per-channel models for the geometry.
func NewSystem(cfg stack.Config, t Timing) *System {
	n := cfg.Stacks * cfg.Channels()
	chs := make([]*Channel, n)
	for i := range chs {
		chs[i] = NewChannel(cfg.BanksPerDie, t)
	}
	return &System{cfg: cfg, timing: t, channels: chs}
}

// Access serves one access to the line at dense index lineIdx (see
// stack.Config.LineIndex) under the striping layout, fanning out to the
// slice banks and joining on the slowest. It returns the completion
// cycle.
func (s *System) Access(lineIdx int64, striping stack.Striping, write bool, at int64) int64 {
	l := s.cfg.Layout(striping)
	return s.access(&l, s.cfg.CoordOfLineIndex(lineIdx), write, at)
}

// access serves one access to the line at co, walking the layout's span
// of banks.
func (s *System) access(l *stack.Layout, co stack.Coord, write bool, at int64) int64 {
	sp := l.Span(co)
	burst := s.timing.TBURST * sp.Bytes / s.cfg.LineBytes
	if burst < 1 {
		burst = 1
	}
	done := at
	bankID, chID := sp.Bank0, sp.Chan0
	for i := 0; i < sp.N; i, bankID, chID = i+1, bankID+sp.BankStride, chID+sp.ChanStride {
		req := Request{
			Bank: bankID - chID*s.cfg.BanksPerDie, Row: sp.Row,
			Write: write, Arrive: at, Burst: burst,
		}
		if d := s.channels[chID].serve(&req); d > done {
			done = d
		}
	}
	return done
}

// SystemStats aggregates a RunStream execution.
type SystemStats struct {
	Requests   int
	LastDone   int64
	AvgLatency float64
	Activates  uint64
}

// RunStream drives a workload request stream through the system closed-loop
// (per-core blocking reads, posted writes), mirroring the coarse model's
// driver at command granularity.
func (s *System) RunStream(reqs []workload.Request, striping stack.Striping, cores int, gapCycles float64) SystemStats {
	l := s.cfg.Layout(striping)
	coreAvail := make([]float64, cores)
	var stats SystemStats
	var latSum int64
	for _, r := range reqs {
		core := r.Core % cores
		issue := coreAvail[core] + gapCycles
		done := s.access(&l, l.Interleave(r.LineAddr), r.Write, int64(issue))
		stats.Requests++
		if done > stats.LastDone {
			stats.LastDone = done
		}
		if r.Write {
			coreAvail[core] = issue // posted
			continue
		}
		latSum += done - int64(issue)
		coreAvail[core] = float64(done)
	}
	reads := 0
	for _, r := range reqs {
		if !r.Write {
			reads++
		}
	}
	if reads > 0 {
		stats.AvgLatency = float64(latSum) / float64(reads)
	}
	for _, ch := range s.channels {
		stats.Activates += ch.Activates
	}
	return stats
}
