// Package citadel is a from-scratch reproduction of "Citadel: Efficiently
// Protecting Stacked Memory from Large Granularity Failures" (Nair, Roberts,
// Qureshi — MICRO 2014).
//
// Citadel lets a 3D-stacked DRAM keep each cache line in a single bank —
// preserving bank-level parallelism and activation power — while tolerating
// large-granularity failures (columns, rows, banks, and TSVs). It combines
// three mechanisms:
//
//   - TSV-SWAP: runtime repair of faulty through-silicon vias using
//     stand-by TSVs carved from the existing data-TSV pool.
//   - 3DP (Tri-Dimensional Parity): CRC-32 detection per line plus XOR
//     parity in three orthogonal dimensions for correction.
//   - DDS (Dynamic Dual-granularity Sparing): permanent faults are spared
//     at row or bank granularity to stop fault accumulation.
//
// The package offers three entry points, each taking a context so a
// caller can cancel a run and keep its partial result:
//
//   - SimulateScenarioReliabilityContext runs FaultSim-style Monte Carlo
//     lifetime studies for any protection scheme registered by name in
//     internal/scenario (the paper's Figures 4, 9, 14, 18, 19).
//   - SimulatePerformanceContext runs the queueing performance/power model
//     over synthetic SPEC/PARSEC/BioBench workloads (Figures 5, 13, 15, 16).
//   - NewController builds a bit-accurate functional model of the Citadel
//     pipeline (CRC → TSV-SWAP → 3DP → DDS) with fault injection.
package citadel

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/obs/trace"
	"repro/internal/rare"
	"repro/internal/scenario"
	"repro/internal/sparing"
	"repro/internal/stack"
)

// Config is the stacked-memory geometry (see DefaultConfig for the paper's
// Table II baseline).
type Config = stack.Config

// DefaultConfig returns the paper's baseline system: two 8 GB stacks of
// eight 8 Gb data dies plus one metadata die each.
func DefaultConfig() Config { return stack.DefaultConfig() }

// Striping selects the cache-line data layout.
type Striping = stack.Striping

// Striping layouts (paper §II-D).
const (
	SameBank       = stack.SameBank
	AcrossBanks    = stack.AcrossBanks
	AcrossChannels = stack.AcrossChannels
)

// FITRates holds per-die failure rates; Table1Rates reproduces the paper's
// Table I for 8 Gb dies.
type FITRates = fault.Rates

// Table1Rates returns the paper's Table I failure rates (no TSV faults;
// use WithTSV for the sensitivity sweep).
func Table1Rates() FITRates { return fault.Table1() }

// buildPolicy constructs the engine policy of a named scheme through the
// scenario registry, optionally forcing TSV-SWAP on (as the paper does
// for all systems after §V-D). A scheme that natively uses TSV-SWAP
// (Citadel) keeps its plain name; forcing it onto any other scheme
// appends "+TSV-Swap", exactly as the pre-registry hand-wiring named
// its policies.
func buildPolicy(name string, cfg Config, params scenario.Params, tsvSwap bool) (faultsim.Policy, error) {
	p, err := scenario.BuildScheme(name, cfg, params)
	if err != nil {
		return faultsim.Policy{}, err
	}
	native := p.UseTSVSwap
	if tsvSwap {
		p.UseTSVSwap = true
	}
	if p.UseTSVSwap && !native {
		p.Name += "+TSV-Swap"
	}
	return p, nil
}

// ReliabilityOptions configures a Monte Carlo reliability study.
type ReliabilityOptions struct {
	// Config is the geometry (default: DefaultConfig).
	Config Config
	// Rates are the FIT rates (default: Table1Rates).
	Rates FITRates
	// Trials is the Monte Carlo trial count (default 100000).
	Trials int
	// LifetimeYears is the evaluated lifetime (default 7).
	LifetimeYears float64
	// ScrubIntervalHours is the scrub period (default 12).
	ScrubIntervalHours float64
	// TSVSwap forces TSV-SWAP on for every scheme (the paper enables it
	// for all systems after §V-D).
	TSVSwap bool
	// Seed makes runs reproducible. See DESIGN.md "Reproducibility
	// contract": equal seeds give bit-identical results on any host and
	// at any worker count.
	Seed int64
	// Workers bounds parallelism; the engine clamps it to
	// [1, GOMAXPROCS] (0 or negative selects GOMAXPROCS). It changes
	// speed only, never the result.
	Workers int
	// Progress, when non-nil, receives periodic run snapshots plus a
	// final one with Done set (see faultsim.Options.Progress).
	Progress func(RunProgress)
	// ProgressInterval throttles Progress callbacks (default 1s).
	ProgressInterval time.Duration
	// RunID correlates progress snapshots, forensic exemplars, metrics,
	// and traces from one logical run.
	RunID string
	// Forensics enables failure forensics: every uncorrectable trial is
	// bucketed into Result.Breakdown by fault-mode combination, and the
	// first MaxExemplars failures are captured as replayable Forensic
	// records with machine-readable reason chains.
	Forensics bool
	// MaxExemplars bounds the captured exemplars (default 8 when
	// Forensics is set).
	MaxExemplars int
	// Trace, when non-nil, records sampled per-trial spans and failure
	// instants into the flight recorder.
	Trace *trace.Recorder
	// RareEvent switches the run to the importance-sampled rare-event
	// engine (internal/rare): fault arrivals are biased toward
	// large-granularity classes and unbiased by likelihood ratios, so
	// ~1e-6-and-below tails resolve in orders of magnitude fewer trials.
	// The returned Result is Weighted. Incompatible with Forensics and
	// Trace (the rare engine does not capture exemplars or spans).
	RareEvent bool
	// BiasFactor is the rare-event rate inflation (>= 1; 0 selects
	// DefaultBiasFactor). Only meaningful with RareEvent.
	BiasFactor float64
	// FaultModel names the registered arrival-process plugin ("" selects
	// scenario.DefaultFaultModel, the Poisson FIT-rate process — bit-
	// identical to runs predating the field). Non-default models are
	// incompatible with RareEvent: the importance-sampled engine biases
	// Poisson rates and cannot reweight an arbitrary arrival process.
	FaultModel string
	// ScenarioParams are plugin knobs shared by the scheme and fault-model
	// plugins (flat namespace; keys validated against the union of both
	// plugins' declared parameters). Nil runs every plugin at its
	// documented defaults.
	ScenarioParams map[string]float64
}

// DefaultBiasFactor is the rare-event engine's default rate inflation.
const DefaultBiasFactor = rare.DefaultBiasFactor

// Result is the outcome of a reliability run.
type Result = faultsim.Result

// RunProgress is a point-in-time snapshot of a reliability run.
type RunProgress = faultsim.Progress

// withDefaults fills zero fields. Trials and ScrubIntervalHours are
// filled here to match their doc comments; faultsim.Options.withDefaults
// applies the same values and remains the single source of truth for
// callers that bypass this package.
func (o ReliabilityOptions) withDefaults() ReliabilityOptions {
	if o.Config.Stacks == 0 {
		o.Config = DefaultConfig()
	}
	zero := FITRates{}
	if o.Rates == zero {
		o.Rates = Table1Rates()
	}
	if o.Trials == 0 {
		o.Trials = 100000
	}
	if o.LifetimeYears == 0 {
		o.LifetimeYears = 7
	}
	if o.ScrubIntervalHours == 0 {
		o.ScrubIntervalHours = faultsim.DefaultScrubIntervalHours
	}
	return o
}

// engineOptions converts to the internal engine options.
func (o ReliabilityOptions) engineOptions() faultsim.Options {
	return faultsim.Options{
		Config:             o.Config,
		Rates:              o.Rates,
		Trials:             o.Trials,
		LifetimeHours:      o.LifetimeYears * fault.HoursPerYear,
		ScrubIntervalHours: o.ScrubIntervalHours,
		Seed:               o.Seed,
		Workers:            o.Workers,
		Progress:           o.Progress,
		ProgressInterval:   o.ProgressInterval,
		RunID:              o.RunID,
		Forensics:          o.Forensics,
		MaxExemplars:       o.MaxExemplars,
		Trace:              o.Trace,
	}
}

// scenarioSetup validates the scenario selection and builds the policy
// and engine options for a named scheme, routing the arrival process
// through the fault-model registry. poissonOnly marks engines that draw
// their own Poisson arrivals (rare-event, splitting, forensic replay):
// they refuse any other fault model rather than silently ignore it. opts
// must already have defaults applied.
func (o ReliabilityOptions) scenarioSetup(schemeName string, poissonOnly bool) (faultsim.Policy, faultsim.Options, error) {
	if poissonOnly && o.FaultModel != "" && o.FaultModel != scenario.DefaultFaultModel {
		return faultsim.Policy{}, faultsim.Options{}, fmt.Errorf(
			"citadel: rare-event, splitting and forensic replay support only the %q fault model, not %q",
			scenario.DefaultFaultModel, o.FaultModel)
	}
	params := scenario.Params(o.ScenarioParams)
	if err := scenario.ValidateParams(schemeName, o.FaultModel, params); err != nil {
		return faultsim.Policy{}, faultsim.Options{}, err
	}
	pol, err := buildPolicy(schemeName, o.Config, params, o.TSVSwap)
	if err != nil {
		return faultsim.Policy{}, faultsim.Options{}, err
	}
	arrivals, err := scenario.BuildFaultModel(o.FaultModel, o.Config, o.Rates, params)
	if err != nil {
		return faultsim.Policy{}, faultsim.Options{}, err
	}
	eo := o.engineOptions()
	eo.NewArrivals = arrivals
	return pol, eo, nil
}

// SimulateScenarioReliabilityContext estimates the probability of system
// failure for one registered scheme (see scenario.Schemes; the paper's
// schemes are registered under the names of its figures, e.g. "Citadel",
// "3DP", "Symbol8/Across-Channels"). The scheme plugin builds the policy,
// the fault-model plugin named by opts.FaultModel builds the arrival
// process, and the engine simulates them. With opts.RareEvent the trial
// budget runs through the importance-sampled engine instead and the
// Result comes back Weighted.
//
// Errors are configuration errors (unknown plugin, bad parameters, a
// fault model the rare-event engine cannot honor). Cancelling ctx stops
// the workers within one trial batch and returns the completed trials as
// a Result marked Partial with a nil error; the estimate stays unbiased,
// just wider.
func SimulateScenarioReliabilityContext(ctx context.Context, opts ReliabilityOptions, schemeName string) (Result, error) {
	opts = opts.withDefaults()
	pol, eo, err := opts.scenarioSetup(schemeName, opts.RareEvent)
	if err != nil {
		return Result{}, err
	}
	if opts.RareEvent {
		return rare.RunISContext(ctx, rare.Options{Options: eo, BiasFactor: opts.BiasFactor}, pol), nil
	}
	return faultsim.RunContext(ctx, eo, pol), nil
}

// SimulateScenarioReliabilityAdaptiveContext adds trials in batches until
// targetFailures failures are observed (tight relative confidence on
// rare-event schemes like Citadel) or maxTrials is reached — the paper's
// "more trials for schemes that show lower failure rates" methodology
// (§III-B). It always uses the plain Monte Carlo engine (RareEvent is
// ignored); cancellation stops the batch loop and returns the trials
// accumulated so far as a Result marked Partial.
func SimulateScenarioReliabilityAdaptiveContext(ctx context.Context, opts ReliabilityOptions, schemeName string, targetFailures, maxTrials int) (Result, error) {
	opts = opts.withDefaults()
	pol, eo, err := opts.scenarioSetup(schemeName, false)
	if err != nil {
		return Result{}, err
	}
	return faultsim.RunAdaptiveContext(ctx, faultsim.AdaptiveOptions{
		Options:        eo,
		TargetFailures: targetFailures,
		MaxTrials:      maxTrials,
	}, pol), nil
}

// SplitResult is a multilevel-splitting reliability estimate — the
// cross-validation counterpart of the importance-sampled engine.
type SplitResult = rare.SplitResult

// SimulateReliabilitySplitContext estimates the failure probability of a
// registered scheme by multilevel splitting on the number of
// simultaneously live faults, using opts.Trials trajectories per stage at
// the given levels (nil selects the default [1, 2]). It shares no bias
// machinery with the importance-sampled path, so agreement between the
// two is a meaningful check. Like the rare-event engine it draws Poisson
// arrivals and refuses any other fault model. Cancellation abandons the
// run and returns a SplitResult marked Partial.
func SimulateReliabilitySplitContext(ctx context.Context, opts ReliabilityOptions, schemeName string, levels []int) (SplitResult, error) {
	opts = opts.withDefaults()
	pol, eo, err := opts.scenarioSetup(schemeName, true)
	if err != nil {
		return SplitResult{}, err
	}
	return rare.RunSplitContext(ctx, rare.SplitOptions{Options: eo, Levels: levels}, pol), nil
}

// FaultCensus tallies permanent-fault anatomy over lifetimes: the bimodal
// rows-per-faulty-bank histogram (Figure 17) and the failed-banks-per-system
// distribution (Table III).
type FaultCensus = faultsim.Census

// RunFaultCensusContext performs the census behind Figure 17 and
// Table III; a cancelled census returns the tallies gathered so far,
// marked Partial.
func RunFaultCensusContext(ctx context.Context, opts ReliabilityOptions) FaultCensus {
	opts = opts.withDefaults()
	return faultsim.RunCensusContext(ctx, opts.engineOptions(), opts.TSVSwap)
}

// StorageOverhead reports Citadel's storage budget (paper §VII-E): the
// metadata-die fraction, the parity-bank fraction, and the on-chip SRAM
// bytes for Dimension-2/3 parity plus the DDS tables.
type StorageOverhead struct {
	MetadataFraction   float64 // extra DRAM for the metadata die
	ParityBankFraction float64 // one data bank dedicated to Dim-1 parity
	SRAMBytes          int     // on-chip parity rows + RRT/BRT
}

// Total returns the total DRAM storage overhead fraction.
func (s StorageOverhead) Total() float64 { return s.MetadataFraction + s.ParityBankFraction }

// ComputeStorageOverhead evaluates the overhead accounting for a geometry.
func ComputeStorageOverhead(cfg Config) StorageOverhead {
	dim23Rows := (cfg.DataDies + cfg.ECCDies) + cfg.BanksPerDie // 9 + 8 rows
	return StorageOverhead{
		MetadataFraction:   float64(cfg.ECCDies) / float64(cfg.DataDies),
		ParityBankFraction: 1 / float64(cfg.DataDies*cfg.BanksPerDie),
		SRAMBytes:          dim23Rows*cfg.RowBytes + sparing.OverheadBits(cfg)/8,
	}
}
