package citadel

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/perfsim"
	"repro/internal/power"
	"repro/internal/workload"
)

// Benchmark is a workload profile (29 SPEC CPU2006, 7 PARSEC, 2 BioBench).
type Benchmark = workload.Profile

// Benchmarks returns all 38 evaluation workloads.
func Benchmarks() []Benchmark { return workload.Profiles() }

// BenchmarkByName looks up one workload.
func BenchmarkByName(name string) (Benchmark, bool) { return workload.ByName(name) }

// Protection selects the protection overheads applied in a performance
// simulation.
type Protection int

const (
	// NoProtection is the fault-free baseline (no ECC traffic).
	NoProtection Protection = iota
	// Protection3DP is 3DP with on-demand parity caching in the LLC.
	Protection3DP
	// Protection3DPNoCache is 3DP updating Dimension-1 parity directly in
	// memory on every writeback.
	Protection3DPNoCache
)

// String names the protection mode.
func (p Protection) String() string {
	switch p {
	case NoProtection:
		return "baseline"
	case Protection3DP:
		return "3DP"
	case Protection3DPNoCache:
		return "3DP-no-cache"
	default:
		return fmt.Sprintf("Protection(%d)", int(p))
	}
}

// PerfOptions configures a performance/power simulation.
type PerfOptions struct {
	// Config is the geometry (default DefaultConfig).
	Config Config
	// Striping is the data layout (default SameBank).
	Striping Striping
	// Protection injects scheme overheads (default NoProtection).
	Protection Protection
	// ParityCacheHitRate is the Dimension-1 parity LLC hit rate used by
	// Protection3DP (default 0.85, the paper's Figure-13 average).
	ParityCacheHitRate float64
	// Requests is the number of memory requests simulated (default 100000).
	Requests int
	// Seed makes runs reproducible.
	Seed int64
	// Progress, when non-nil, receives periodic run snapshots plus a
	// final one with Done set (see perfsim.Config.Progress).
	Progress func(PerfProgress)
	// ProgressInterval throttles Progress callbacks (default 1s).
	ProgressInterval time.Duration
	// RunID correlates progress snapshots, traces, and metrics from one
	// logical run.
	RunID string
	// Tracer, when non-nil, records sampled per-request spans (timestamps
	// in memory-bus cycles) into the flight recorder.
	Tracer *trace.Recorder
}

// PerfProgress is a point-in-time snapshot of a performance simulation.
type PerfProgress = perfsim.Progress

// ReadPhases attributes demand-read latency to its contributors: bank
// queueing, row activation, column access, channel-bus contention, and
// data transfer (see perfsim.Phases).
type ReadPhases = perfsim.Phases

// PerfResult reports execution time and active power for one benchmark.
type PerfResult struct {
	Benchmark string
	Suite     workload.Suite
	// Cycles is execution time in memory-bus cycles.
	Cycles uint64
	// ActivePowerWatts is the modeled average active power.
	ActivePowerWatts float64
	// RowHitRate is the measured row-buffer hit rate.
	RowHitRate float64
	// AvgReadLatencyCycles is the mean demand-read latency in memory-bus
	// cycles (queueing included).
	AvgReadLatencyCycles float64
	// ReadPhases attributes the average demand-read latency to its
	// contributors (per-read averages, in memory-bus cycles).
	ReadPhases ReadPhases
	// AvgParityOverheadCycles is the mean background cycles each
	// parity-touching writeback spent on Dimension-1 parity maintenance
	// (zero without 3DP overheads).
	AvgParityOverheadCycles float64
	// RequestsDone counts the memory requests actually simulated; fewer
	// than requested when the run was cancelled (see Partial).
	RequestsDone int
	// Partial reports that the simulation was cancelled before serving
	// every requested memory request.
	Partial bool
}

// SimulatePerformanceContext runs the timing/power model for one
// benchmark, checking ctx between request batches. A cancelled run
// returns the statistics of the requests served so far with Partial set.
func SimulatePerformanceContext(ctx context.Context, b Benchmark, opts PerfOptions) PerfResult {
	cfg := perfsim.DefaultConfig()
	if opts.Config.Stacks != 0 {
		cfg.Stack = opts.Config
	}
	cfg.Striping = opts.Striping
	if opts.Requests != 0 {
		cfg.Requests = opts.Requests
	}
	cfg.Seed = opts.Seed
	cfg.Progress = opts.Progress
	cfg.ProgressInterval = opts.ProgressInterval
	cfg.RunID = opts.RunID
	cfg.Tracer = opts.Tracer
	hit := opts.ParityCacheHitRate
	if hit == 0 {
		hit = 0.85
	}
	switch opts.Protection {
	case Protection3DP:
		cfg.Overhead = perfsim.Citadel3DP(hit)
	case Protection3DPNoCache:
		cfg.Overhead = perfsim.Citadel3DPNoCache()
	}
	st := perfsim.RunContext(ctx, b, cfg)
	pp := power.Default8Gb()
	return PerfResult{
		Benchmark:               b.Name,
		Suite:                   b.Suite,
		Cycles:                  st.Cycles,
		ActivePowerWatts:        pp.ActivePower(st.Power),
		RowHitRate:              st.RowHitRate(),
		AvgReadLatencyCycles:    st.AvgReadLatency(),
		ReadPhases:              st.AvgReadPhases(),
		AvgParityOverheadCycles: st.AvgParityOverhead(),
		RequestsDone:            st.RequestsDone,
		Partial:                 st.Partial,
	}
}

// ParityCacheResult is the Figure-13 measurement for one benchmark.
type ParityCacheResult = perfsim.ParityCacheResult

// MeasureParityCachingContext simulates on-demand Dimension-1 parity
// caching in the LLC and returns the parity-update hit rate (Figure 13).
// A cancelled measurement returns the hit statistics gathered so far,
// marked Partial.
func MeasureParityCachingContext(ctx context.Context, b Benchmark, requests int, seed int64) ParityCacheResult {
	if requests == 0 {
		requests = 200000
	}
	return perfsim.ParityCacheHitRateContext(ctx, b, 8<<20, 8, requests, seed)
}
