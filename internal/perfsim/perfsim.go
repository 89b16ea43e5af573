// Package perfsim is the performance model behind the paper's Figures 5,
// 15 and 16: a queueing simulation of the stacked memory system (channels,
// banks, row buffers, shared channel buses) driven by the synthetic
// per-benchmark request streams of internal/workload.
//
// Each request fans out to the banks selected by the striping layout
// (internal/stack): Same-Bank touches one bank; Across-Banks touches every
// bank of one channel, serializing slice bursts on that channel's bus;
// Across-Channels forks to one bank in every channel and joins on the
// slowest (the fork-join penalty plus whole-stack occupancy is what makes
// it the slowest layout). Protection-scheme overheads — 3DP's
// read-before-write and Dimension-1 parity traffic, with or without parity
// caching — are injected as extra accesses.
//
// The model is calibrated for *relative* behaviour (normalized execution
// time and normalized active power); absolute cycle counts are not meant to
// match the authors' testbed.
package perfsim

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/power"
	"repro/internal/stack"
	"repro/internal/workload"
)

// cancelCheckInterval is how many requests the simulator serves between
// context checks; cancellation latency is bounded by one interval.
const cancelCheckInterval = 1024

// Timing holds DRAM timing parameters in memory-bus clock cycles
// (Table II: tWTR-tCAS-tRCD-tRP-tRAS = 7-9-9-9-36, 800 MHz bus).
type Timing struct {
	TWTR, TCAS, TRCD, TRP, TRAS int
	// LineBurst is the data-bus occupancy of a full 64-byte line on one
	// channel.
	LineBurst int
	// CoreMult is the core-to-memory clock ratio (3.2 GHz / 800 MHz).
	CoreMult float64
}

// DefaultTiming returns the Table II timing.
func DefaultTiming() Timing {
	return Timing{TWTR: 7, TCAS: 9, TRCD: 9, TRP: 9, TRAS: 36, LineBurst: 4, CoreMult: 4}
}

// Overheads injects protection-scheme traffic.
type Overheads struct {
	// RBWOnWriteback issues a read-before-write for every writeback (3DP
	// parity update, paper Figure 12 action 2).
	RBWOnWriteback bool
	// ParityCaching, when RBWOnWriteback is set, models Dimension-1 parity
	// lines cached in the LLC: a parity fetch from memory happens only on
	// an LLC parity miss.
	ParityCaching bool
	// ParityCacheHitRate is the LLC hit rate for parity updates (paper
	// Figure 13: 85% average). Used when ParityCaching is true.
	ParityCacheHitRate float64
}

// Citadel3DP returns the overheads of 3DP with parity caching at the given
// hit rate.
func Citadel3DP(hitRate float64) Overheads {
	return Overheads{RBWOnWriteback: true, ParityCaching: true, ParityCacheHitRate: hitRate}
}

// Citadel3DPNoCache returns the overheads of 3DP without parity caching:
// every writeback reads and rewrites the parity line in memory.
func Citadel3DPNoCache() Overheads {
	return Overheads{RBWOnWriteback: true, ParityCaching: false}
}

// Config configures one simulation.
type Config struct {
	Stack    stack.Config
	Striping stack.Striping
	Timing   Timing
	Overhead Overheads
	// Requests is the number of memory requests to simulate.
	Requests int
	// Cores is the number of cores in rate mode (Table II: 8).
	Cores int
	Seed  int64
	// Trace, when non-nil, replays a recorded request stream instead of
	// the synthetic generator (see workload.ReadTrace). Each run reads
	// through a private cursor rewound to the start of the trace, so one
	// Config can drive sequential or concurrent runs safely.
	Trace *workload.TraceSource
	// Tracer, when non-nil, records sampled per-request spans (timestamps
	// in memory-bus cycles) into the flight recorder. Sampling hashes the
	// demand-read index, so it never perturbs the RNG draw sequence.
	Tracer *trace.Recorder
	// RunID correlates progress snapshots, traces, and metrics with one
	// logical run.
	RunID string
	// Progress, when non-nil, receives a snapshot of the run roughly
	// every ProgressInterval plus one final snapshot (Done set) when the
	// run ends. The simulator is single-threaded, so calls never overlap.
	Progress func(Progress)
	// ProgressInterval throttles Progress callbacks (default 1s).
	ProgressInterval time.Duration
}

// Progress is a point-in-time snapshot of a running simulation.
type Progress struct {
	// RunID echoes Config.RunID so interleaved progress lines from
	// concurrent runs can be told apart.
	RunID string
	// RequestsDone counts requests served so far out of RequestsTarget.
	RequestsDone, RequestsTarget int
	// Reads counts demand reads served so far.
	Reads uint64
	// RowHitRate is the row-buffer hit rate so far.
	RowHitRate float64
	// AvgReadLatency is the mean demand-read latency so far, in
	// memory-bus cycles.
	AvgReadLatency float64
	// Elapsed is the wall-clock time since the run started.
	Elapsed time.Duration
	// Done marks the final snapshot of the run.
	Done bool
}

// RequestsPerSec returns the observed simulation throughput.
func (p Progress) RequestsPerSec() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.RequestsDone) / p.Elapsed.Seconds()
}

// DefaultConfig returns the Table II baseline configuration.
func DefaultConfig() Config {
	return Config{
		Stack:    stack.DefaultConfig(),
		Striping: stack.SameBank,
		Timing:   DefaultTiming(),
		Requests: 100000,
		Cores:    8,
	}
}

// Phases attributes demand-read latency to its contributors, all in
// memory-bus cycles, summed across the slices of each access:
//
//   - Queue: waiting for a busy bank (bank conflicts, plus the exposed
//     fraction of background write traffic).
//   - Activate: row-activation work on row-buffer misses (tRP + tRCD).
//   - CAS: column access (tCAS), paid by every slice.
//   - Bus: waiting for the channel data bus (slice serialization on the
//     striped layouts, cross-request contention otherwise).
//   - Burst: the data transfer itself.
//
// Queue and Bus are pure contention; Activate is the row-locality cost;
// CAS+Burst is the unavoidable service floor.
type Phases struct {
	Queue    float64 `json:"queue"`
	Activate float64 `json:"activate"`
	CAS      float64 `json:"cas"`
	Bus      float64 `json:"bus"`
	Burst    float64 `json:"burst"`
}

// add accumulates o into p.
func (p *Phases) add(o Phases) {
	p.Queue += o.Queue
	p.Activate += o.Activate
	p.CAS += o.CAS
	p.Bus += o.Bus
	p.Burst += o.Burst
}

// scale returns p scaled by f (e.g. 1/reads for per-read averages).
func (p Phases) scale(f float64) Phases {
	return Phases{
		Queue:    p.Queue * f,
		Activate: p.Activate * f,
		CAS:      p.CAS * f,
		Bus:      p.Bus * f,
		Burst:    p.Burst * f,
	}
}

// Stats reports the outcome of one simulation.
type Stats struct {
	// Cycles is the execution time in memory-bus cycles.
	Cycles uint64
	// Instructions is the total instruction count completed, summed over
	// every core's progress (a looping trace contributes each lap's
	// per-core progress rather than stalling at the first lap's maximum).
	Instructions uint64
	// RowHits and RowMisses count bank-level row-buffer outcomes.
	RowHits, RowMisses uint64
	// Reads counts demand reads; ReadLatencySum accumulates their
	// end-to-end latency in memory cycles.
	Reads          uint64
	ReadLatencySum float64
	// ReadPhases attributes the demand-read latency to its contributors
	// (summed over all reads; divide by Reads for per-read averages).
	// Slices of one access proceed in parallel and each accrues its own
	// wait, so the phase sums do not compose to ReadLatencySum — under
	// wide striping the queue sum can exceed the critical-path latency.
	// Only Same-Bank (single slice) composes exactly.
	ReadPhases Phases
	// ParityUpdates counts writebacks that touched memory for Dimension-1
	// parity maintenance; ParityOverheadSum accumulates the background
	// cycles those updates occupied (read-before-write plus the parity
	// line accesses). Posted writes hide this from the core, but it
	// consumes bank/bus bandwidth and leaks into read queueing.
	ParityUpdates     uint64
	ParityOverheadSum float64
	// Power tallies DRAM operations for the power model.
	Power power.Counts
	// RequestsDone counts the requests actually simulated; fewer than
	// Config.Requests when the run was cancelled (see Partial).
	RequestsDone int
	// Partial reports that the run was cancelled before serving every
	// requested memory request.
	Partial bool
}

// CPI returns system cycles per instruction in core clocks: execution
// time divided by the instructions completed across all cores.
func (s Stats) CPI(t Timing) float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) * t.CoreMult / float64(s.Instructions)
}

// AvgReadLatency returns the mean demand-read latency in memory cycles.
func (s Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return s.ReadLatencySum / float64(s.Reads)
}

// AvgReadPhases returns the per-read average of each latency phase.
func (s Stats) AvgReadPhases() Phases {
	if s.Reads == 0 {
		return Phases{}
	}
	return s.ReadPhases.scale(1 / float64(s.Reads))
}

// AvgParityOverhead returns the mean background cycles per parity-touching
// writeback.
func (s Stats) AvgParityOverhead() float64 {
	if s.ParityUpdates == 0 {
		return 0
	}
	return s.ParityOverheadSum / float64(s.ParityUpdates)
}

// RowHitRate returns the measured row-buffer hit rate.
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// sim is the simulation state.
type sim struct {
	cfg  Config
	prof workload.Profile
	// layout is cfg.Stack's address mapping compiled for cfg.Striping,
	// and burst the data-bus cycles of each of its slices: the line burst
	// split across the banks one access touches, at least one cycle.
	layout stack.Layout
	burst  float64

	bankFree  []float64 // read-priority clock per dense bank id
	bankFreeW []float64 // write-priority (background drain) clock
	bankRow   []int     // open row (-1 = closed)
	chanFree  []float64 // read-priority channel-bus clock
	chanFreeW []float64 // write-priority channel-bus clock

	coreAvail []float64

	stats Stats
	rng   *rand.Rand

	// acc is the per-access phase scratch: serve zeroes it before each
	// access it wants attributed (demand reads for ReadPhases, the RBW and
	// parity sections for parity occupancy), accessSlices fills it.
	acc Phases
	// metrics stages the run's histogram observations (see runMetrics).
	metrics runMetrics
}

// newSim builds the simulation state for one run of prof under cfg, with
// cfg's zero Requests and Cores replaced by their defaults.
func newSim(prof workload.Profile, cfg Config) *sim {
	if cfg.Requests == 0 {
		cfg.Requests = 100000
	}
	if cfg.Cores == 0 {
		cfg.Cores = 8
	}
	banks := cfg.Stack.TotalDataBanks()
	channels := cfg.Stack.Stacks * cfg.Stack.Channels()
	s := &sim{
		cfg:       cfg,
		prof:      prof,
		layout:    cfg.Stack.Layout(cfg.Striping),
		bankFree:  make([]float64, banks),
		bankFreeW: make([]float64, banks),
		bankRow:   make([]int, banks),
		chanFree:  make([]float64, channels),
		chanFreeW: make([]float64, channels),
		coreAvail: make([]float64, cfg.Cores),
		rng:       rand.New(rand.NewSource(cfg.Seed + 1)),
		metrics:   newRunMetrics(),
	}
	s.burst = float64(cfg.Timing.LineBurst) / float64(cfg.Striping.UnitsTouched(cfg.Stack))
	if s.burst < 1 {
		s.burst = 1
	}
	for i := range s.bankRow {
		s.bankRow[i] = -1
	}
	return s
}

// Run simulates the profile under the configuration; it cannot be
// interrupted (see RunContext).
func Run(prof workload.Profile, cfg Config) Stats {
	return RunContext(context.Background(), prof, cfg)
}

// RunContext simulates the profile under the configuration, checking ctx
// between request batches. A cancelled run returns the statistics of the
// requests served so far with Partial set.
func RunContext(ctx context.Context, prof workload.Profile, cfg Config) Stats {
	s := newSim(prof, cfg)
	cfg = s.cfg
	mRunsActive.Inc()
	defer mRunsActive.Dec()
	next := func() workload.Request { return workload.Request{} }
	if cfg.Trace != nil {
		// Private cursor: replay from the start without mutating the
		// shared TraceSource (reuse across runs would otherwise resume
		// mid-trace, and concurrent runs would race on the position).
		tr := cfg.Trace.Clone()
		tr.Reset()
		next = tr.Next
	} else {
		gen := workload.NewGenerator(prof, cfg.Cores, cfg.Seed)
		next = gen.Next
	}
	progressInterval := cfg.ProgressInterval
	if progressInterval <= 0 {
		progressInterval = time.Second
	}
	start := time.Now()
	lastProgress := start
	snapshot := func(done bool) Progress {
		return Progress{
			RunID:          cfg.RunID,
			RequestsDone:   s.stats.RequestsDone,
			RequestsTarget: cfg.Requests,
			Reads:          s.stats.Reads,
			RowHitRate:     s.stats.RowHitRate(),
			AvgReadLatency: s.stats.AvgReadLatency(),
			Elapsed:        time.Since(start),
			Done:           done,
		}
	}
	// flush publishes the delta since the last flush into the global
	// metrics, counters and staged histograms alike, so a scrape mid-run
	// sees the simulation move.
	var flushed Stats
	flush := func() {
		mRequests.Add(int64(s.stats.RequestsDone - flushed.RequestsDone))
		mReads.Add(int64(s.stats.Reads - flushed.Reads))
		mRowHits.Add(int64(s.stats.RowHits - flushed.RowHits))
		mRowMisses.Add(int64(s.stats.RowMisses - flushed.RowMisses))
		s.metrics.flush()
		flushed = s.stats
	}
	defer flush()
	// Instructions are summed across cores. Each core's ICount advances
	// monotonically, so its contribution is the delta from the last
	// request seen on that core; a looping trace restarts a core's
	// counter, in which case the wrapped value is the fresh progress.
	lastICount := make([]uint64, cfg.Cores)
	var instructions uint64
	for i := 0; i < cfg.Requests; i++ {
		if i%cancelCheckInterval == 0 {
			flush()
			if cfg.Progress != nil {
				if now := time.Now(); now.Sub(lastProgress) >= progressInterval {
					lastProgress = now
					cfg.Progress(snapshot(false))
				}
			}
			if ctx.Err() != nil {
				s.stats.Partial = true
				break
			}
		}
		req := next()
		if req.Core >= len(s.coreAvail) {
			// A replayed trace may name more cores than cfg.Cores.
			grown := make([]float64, req.Core+1)
			copy(grown, s.coreAvail)
			s.coreAvail = grown
			grownIC := make([]uint64, req.Core+1)
			copy(grownIC, lastICount)
			lastICount = grownIC
		}
		s.serve(req)
		s.stats.RequestsDone++
		if req.ICount >= lastICount[req.Core] {
			instructions += req.ICount - lastICount[req.Core]
		} else {
			instructions += req.ICount
		}
		lastICount[req.Core] = req.ICount
	}
	end := 0.0
	for _, t := range s.coreAvail {
		if t > end {
			end = t
		}
	}
	s.stats.Cycles = uint64(end)
	s.stats.Instructions = instructions
	s.stats.Power.Cycles = uint64(end)
	s.stats.Power.Dies = cfg.Stack.Stacks * (cfg.Stack.DataDies + cfg.Stack.ECCDies)
	if cfg.Progress != nil {
		cfg.Progress(snapshot(true))
	}
	return s.stats
}

// WriteInterference is the fraction of background (write-class) bank busy
// time exposed to the read-priority clock. Memory controllers buffer
// writebacks and drain them in idle slots (FR-FCFS with write batching), so
// writes delay reads only when the drain cannot stay ahead.
const WriteInterference = 0.15

// StallOverlap models the additional latency overlap an out-of-order core
// extracts beyond raw MLP (prefetching, speculation). It scales the
// exposed miss penalty and is the model's single calibration constant.
const StallOverlap = 2.2

// accessSlices performs one memory access (all slices of the line at co)
// starting no earlier than at. Demand reads run at high priority;
// background accesses (writebacks, parity maintenance) use the
// low-priority clocks and leak only WriteInterference of their busy time
// into the read clocks. It returns the completion time.
func (s *sim) accessSlices(co stack.Coord, at float64, write, background bool) float64 {
	t := &s.cfg.Timing
	sp := s.layout.Span(co)
	burst := s.burst
	finish := at
	bankID, chID := sp.Bank0, sp.Chan0
	for i := 0; i < sp.N; i, bankID, chID = i+1, bankID+sp.BankStride, chID+sp.ChanStride {
		start := at
		if background {
			if s.bankFreeW[bankID] > start {
				start = s.bankFreeW[bankID]
			}
			if s.bankFree[bankID] > start {
				start = s.bankFree[bankID]
			}
		} else if s.bankFree[bankID] > start {
			start = s.bankFree[bankID]
		}
		var svc float64
		if s.bankRow[bankID] == sp.Row {
			s.stats.RowHits++
			svc = float64(t.TCAS)
		} else {
			s.stats.RowMisses++
			svc = float64(t.TRP + t.TRCD + t.TCAS)
			s.bankRow[bankID] = sp.Row
			s.stats.Power.Activates++
			s.acc.Activate += float64(t.TRP + t.TRCD)
		}
		s.acc.Queue += start - at
		s.acc.CAS += float64(t.TCAS)
		if write {
			svc += float64(t.TWTR)
			s.stats.Power.WriteBytes += uint64(sp.Bytes)
		} else {
			s.stats.Power.ReadBytes += uint64(sp.Bytes)
		}
		// The channel data bus is occupied only for the burst transfer;
		// CAS/activate latencies overlap across banks of a channel.
		xfer := start + svc
		if background {
			if s.chanFreeW[chID] > xfer {
				xfer = s.chanFreeW[chID]
			}
		} else if s.chanFree[chID] > xfer {
			xfer = s.chanFree[chID]
		}
		s.acc.Bus += xfer - (start + svc)
		s.acc.Burst += burst
		done := xfer + burst
		if background {
			s.bankFreeW[bankID] = done
			s.chanFreeW[chID] = done
			// A fraction of the background service time is exposed to
			// reads (queueing within the write buffer is not).
			s.bankFree[bankID] += (svc + burst) * WriteInterference
		} else {
			s.bankFree[bankID] = done
			s.chanFree[chID] = done
		}
		if done > finish {
			finish = done
		}
	}
	return finish
}

// serve processes one request end to end, including scheme overheads.
func (s *sim) serve(req workload.Request) {
	cfg := &s.cfg
	t := &cfg.Timing
	// The core reaches this request after executing the gap instructions.
	icountCycles := float64(req.ICount) * s.prof.CPI0 / t.CoreMult
	issue := s.coreAvail[req.Core]
	if icountCycles > issue {
		issue = icountCycles
	}
	co := s.layout.Interleave(req.LineAddr)
	if req.Write {
		finish := issue
		var overhead float64
		if cfg.Overhead.RBWOnWriteback {
			// Read-before-write to compute the parity delta (row hit: the
			// write that follows opens the same row). Overhead counts the
			// occupancy (activate + CAS + burst), not the queue wait behind
			// a busy bank — wait time is backlog, not parity work, and under
			// saturation it would swamp the signal.
			s.acc = Phases{}
			finish = s.accessSlices(co, finish, false, true)
			overhead = s.acc.Activate + s.acc.CAS + s.acc.Burst
		}
		s.acc = Phases{}
		finish = s.accessSlices(co, finish, true, true)
		if cfg.Overhead.RBWOnWriteback {
			// Dimension-1 parity update. Parity lines live in the parity
			// bank; the address depends only on (row, slot), giving high
			// locality. A cached parity update costs no memory traffic.
			missRate := 1.0
			if cfg.Overhead.ParityCaching {
				missRate = 1 - cfg.Overhead.ParityCacheHitRate
			}
			if s.rng.Float64() < missRate {
				parityLine := s.parityLine(co)
				s.acc = Phases{}
				if cfg.Overhead.ParityCaching {
					// Fetch the parity line into the LLC; its eventual
					// writeback coalesces many updates and is amortized
					// into the miss itself.
					finish = s.accessSlices(parityLine, finish, false, true)
				} else {
					// Direct in-memory parity update: read-modify-write.
					finish = s.accessSlices(parityLine, finish, false, true)
					s.accessSlices(parityLine, finish, true, true)
				}
				overhead += s.acc.Activate + s.acc.CAS + s.acc.Burst
			}
			// Overhead is the extra background occupancy this writeback
			// spent on parity maintenance: RBW plus the parity-line
			// traffic. Posted, so the core never waits — but the bank and
			// bus time is real.
			s.stats.ParityUpdates++
			s.stats.ParityOverheadSum += overhead
			s.metrics.parityOverhead.Observe(overhead)
		}
		// Writebacks are posted: the core does not stall.
		return
	}
	s.acc = Phases{}
	finish := s.accessSlices(co, issue, false, false)
	s.stats.Reads++
	s.stats.ReadLatencySum += finish - issue
	s.stats.ReadPhases.add(s.acc)
	s.metrics.readLatency.Observe(finish - issue)
	s.metrics.queue.Observe(s.acc.Queue)
	s.metrics.activate.Observe(s.acc.Activate)
	s.metrics.bus.Observe(s.acc.Bus)
	s.metrics.burst.Observe(s.acc.Burst)
	if cfg.Tracer.Enabled() && cfg.Tracer.ShouldSample(s.stats.Reads) {
		ev := trace.Event{
			Name:  "read",
			Cat:   "perfsim",
			Phase: trace.PhaseComplete,
			TS:    issue,
			Dur:   finish - issue,
			TID:   int64(req.Core),
		}
		ev.Args[0] = trace.Arg{Key: "queue", Val: s.acc.Queue}
		ev.Args[1] = trace.Arg{Key: "activate", Val: s.acc.Activate}
		ev.Args[2] = trace.Arg{Key: "bus", Val: s.acc.Bus}
		ev.Args[3] = trace.Arg{Key: "burst", Val: s.acc.Burst}
		cfg.Tracer.Emit(ev)
	}
	// Reads block the core; memory-level parallelism and out-of-order
	// execution overlap the service latency and part of the queueing delay
	// across the outstanding misses.
	stall := (finish - issue) / (s.prof.MLP * StallOverlap)
	s.coreAvail[req.Core] = issue + stall
}

// parityLine maps a data line to its Dimension-1 parity line. The parity
// "bank" is addressed by (row, slot) only — lines with equal row and slot
// across banks/dies share one parity line — but it is an abstraction
// scattered across physical banks by address-bit swapping so that no single
// physical bank becomes a bottleneck (paper footnote 4).
func (s *sim) parityLine(co stack.Coord) stack.Coord {
	cfg := &s.cfg.Stack
	return stack.Coord{
		Stack: co.Stack,
		Die:   co.Row % cfg.Channels(),
		Bank:  (co.Row / cfg.Channels()) % cfg.BanksPerDie,
		Row:   co.Row,
		Line:  co.Line,
	}
}
