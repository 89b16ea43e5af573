package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	citadel "repro"
	"repro/internal/analytic"
	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/obs/trace"
	"repro/internal/scenario"
	"repro/internal/tsv"
)

// sweepCell is one reliability campaign of the sweep-direct workload.
type sweepCell struct {
	id     string
	scheme string
	model  string // fault model; "" is the Poisson FIT sampler
	rates  citadel.FITRates
	params map[string]float64
	// trials per pass at scale 1, sized so each cell takes roughly the
	// same share of sweep time on a 2-core host and none hides the others.
	trials int
	// ledgerTrials is how many sampled trials the traced run replays.
	ledgerTrials int
	// swapAndSpare marks the Citadel cells, whose policy carries
	// TSV-SWAP and DDS; their tsv and sparing ledger lines are printed.
	swapAndSpare bool
}

var sweepCells = []sweepCell{
	{id: "citadel-table1", scheme: "Citadel", rates: citadel.Table1Rates(),
		trials: 20000, ledgerTrials: 100000, swapAndSpare: true},
	{id: "citadel-tsv1430", scheme: "Citadel", rates: citadel.Table1Rates().WithTSV(1430),
		trials: 6000, ledgerTrials: 30000, swapAndSpare: true},
	{id: "citadel-rowhammer", scheme: "Citadel", model: "rowhammer", rates: citadel.Table1Rates().WithTSV(1430),
		params: map[string]float64{"breakthroughProb": 1e-7},
		trials: 200, ledgerTrials: 600, swapAndSpare: true},
	{id: "symbol8-same-bank", scheme: "Symbol8/Same-Bank", rates: citadel.Table1Rates(),
		trials: 50000, ledgerTrials: 100000},
}

// layer reports which ledger module samples this cell's fault lists.
func (c sweepCell) arrivalLayer() string {
	if c.model != "" {
		return "scenario"
	}
	return "fault"
}

// splitmix is the splitmix64 finalizer, used to derive per-pass,
// per-cell campaign seeds from the workload seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func deriveSeed(seed int64, parts ...uint64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x = splitmix(x ^ p)
	}
	return int64(x >> 1)
}

// cellTally aggregates one cell's campaigns over a run.
type cellTally struct {
	trials, failures int
	hostSeconds      float64
}

func (c sweepCell) options(trials int, seed int64, workers int, rec *trace.Recorder) citadel.ReliabilityOptions {
	return citadel.ReliabilityOptions{
		Rates:          c.rates,
		Trials:         trials,
		Seed:           seed,
		Workers:        workers,
		FaultModel:     c.model,
		ScenarioParams: c.params,
		Trace:          rec,
	}
}

// sweepPass runs every cell once through the public entry point and
// returns the pass's wall time. Campaign errors and partial results count
// as failed operations.
func (b *bench) sweepPass(pass int, tallies []cellTally, traced bool) time.Duration {
	ctx := context.Background()
	workers := runtime.GOMAXPROCS(0)
	start := time.Now()
	passStart := b.rec.Now()
	for i, c := range sweepCells {
		trials := b.size(c.trials, 20)
		seed := deriveSeed(b.seed, uint64(i)+1, uint64(pass))
		t := time.Now()
		cellStart := b.rec.Now()
		var engine *trace.Recorder
		if traced {
			engine = b.engine
		}
		res, err := citadel.SimulateScenarioReliabilityContext(ctx, c.options(trials, seed, workers, engine), c.scheme)
		d := time.Since(t)
		b.attempted++
		if err != nil || res.Partial || res.Trials != trials {
			b.failed++
			b.info("campaign %s pass %d failed: err=%v partial=%v trials=%d", c.id, pass, err, res.Partial, res.Trials)
			continue
		}
		if traced {
			b.span(c.id, "cell", 1, cellStart,
				trace.Arg{Key: "trials", Val: float64(trials)}, trace.Arg{Key: "failures", Val: float64(res.Failures)})
		}
		tallies[i].trials += res.Trials
		tallies[i].failures += res.Failures
		tallies[i].hostSeconds += d.Seconds()
	}
	if traced {
		b.span("sweep-pass", "campaign", 0, passStart, trace.Arg{Key: "pass", Val: float64(pass)})
	}
	return time.Since(start)
}

// sweepWindow runs passes until the window closes and returns the pass
// times in milliseconds.
func (b *bench) sweepWindow(seconds float64, firstPass int, tallies []cellTally, traced bool) []float64 {
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var passes []float64
	for p := firstPass; len(passes) == 0 || time.Now().Before(end); p++ {
		passes = append(passes, float64(b.sweepPass(p, tallies, traced).Microseconds())/1000)
	}
	return passes
}

func runSweep(b *bench) error {
	// Set-up: one warm-up campaign per cell at half its pass size, which
	// builds every policy, arrival source and pooled trial state once
	// before timing starts.
	err := b.timeSetup(func(bool) error {
		for i, c := range sweepCells {
			trials := b.size(c.trials/2, 10)
			res, err := citadel.SimulateScenarioReliabilityContext(context.Background(),
				c.options(trials, deriveSeed(b.seed, uint64(i)+1, 1<<32), 0, nil), c.scheme)
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", c.id, err)
			}
			if res.Trials != trials {
				return fmt.Errorf("warm-up %s: %d of %d trials", c.id, res.Trials, trials)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	tallies := make([]cellTally, len(sweepCells))
	if !b.traced {
		start := time.Now()
		passes := b.sweepWindow(b.seconds, 0, tallies, false)
		b.recordOps(passes, time.Since(start))
		b.info("sweep_s = %.4f s (median pass over %d passes)", median(passes)/1000, len(passes))
	} else {
		// Half the window untraced, half traced (the engine's own sampled
		// trial spans on): the ratio of the median pass times is the
		// recorders' overhead.
		plain := b.sweepWindow(b.seconds/2, 0, tallies, false)
		for i, c := range sweepCells {
			b.set("faultsim."+c.id+".trials_per_s", ratio(float64(tallies[i].trials), tallies[i].hostSeconds), "1/s")
		}
		traced := b.sweepWindow(b.seconds/2, len(plain), tallies, true)
		b.set("trace_overhead_ratio", median(traced)/median(plain), "ratio")
		b.sweepScaling()
		for i, c := range sweepCells {
			if err := b.ledger(i, c); err != nil {
				return err
			}
		}
		if err := b.requestPathLedger(); err != nil {
			return err
		}
	}
	for i, c := range sweepCells {
		t := tallies[i]
		b.info("cell %s: %d trials, %d failures, %.3f s host time", c.id, t.trials, t.failures, t.hostSeconds)
		b.checkCell(c, t)
	}
	return nil
}

// checkCell asserts the cell's 99.9% interval, over every campaign of
// the run, overlaps its reference interval. The check depends only on
// the estimate, not on which random streams produced it.
func (b *bench) checkCell(c sweepCell, t cellTally) {
	lo, hi := wilson(t.failures, t.trials, zCheck)
	rlo, rhi, src := cellReference(c)
	b.check("reference."+c.id, overlaps(lo, hi, rlo, rhi),
		fmt.Sprintf("P(fail,7y) %d/%d in [%.3g, %.3g] vs %s [%.3g, %.3g]", t.failures, t.trials, lo, hi, src, rlo, rhi))
}

// cellReference returns the reference interval for a cell and where it
// comes from.
func cellReference(c sweepCell) (lo, hi float64, source string) {
	switch c.id {
	case "symbol8-same-bank":
		// The closed form counts fatal singles (word, row, bank,
		// sub-array) on the data dies only: a fault confined to the ECC
		// die damages one check symbol per codeword, which the code
		// corrects. Pair terms are second order; the band is the 5%
		// model slack internal/analytic's own test allows.
		cfg := citadel.DefaultConfig()
		cfg.ECCDies = 0
		p := analytic.PFailSingles(cfg, c.rates, fault.LifetimeHours, analytic.FatalSingleRate{
			Word: true, Row: true, Bank: true, SubArray: true,
		})
		return p * 0.95, p * 1.05, fmt.Sprintf("analytic %.4g±5%%", p)
	case "citadel-table1":
		lo, hi := wilson(refTable1Failures, refTable1Trials, zCheck)
		return lo, hi, fmt.Sprintf("EXPERIMENTS.md Fig 18/19 %d/%d", refTable1Failures, refTable1Trials)
	case "citadel-tsv1430":
		lo, hi := wilson(refTSV1430Failures, refTSV1430Trials, zCheck)
		return lo, hi, fmt.Sprintf("EXPERIMENTS.md Fig 18 adaptive run %d/%d", refTSV1430Failures, refTSV1430Trials)
	case "citadel-rowhammer":
		lo, hi := wilson(refRowhammerFailures, refRowhammerTrials, zCheck)
		return lo, hi, fmt.Sprintf("reference run %d/%d", refRowhammerFailures, refRowhammerTrials)
	}
	return 0, 1, "none"
}

// sweepScaling measures citadel-table1 throughput at one worker and at
// GOMAXPROCS workers on the same trial count.
func (b *bench) sweepScaling() {
	c := sweepCells[0]
	n := runtime.GOMAXPROCS(0)
	trials := b.size(32*c.trials, 200)
	rate := func(workers int) float64 {
		start := time.Now()
		res, err := citadel.SimulateScenarioReliabilityContext(context.Background(),
			c.options(trials, deriveSeed(b.seed, 99, uint64(workers)), workers, nil), c.scheme)
		b.attempted++
		if err != nil || res.Trials != trials {
			b.failed++
			return 0
		}
		return float64(trials) / time.Since(start).Seconds()
	}
	one := rate(1)
	all := rate(n)
	b.set("faultsim.scaling_efficiency", ratio(all, float64(n)*one), "ratio")
	b.info("faultsim.scaling_efficiency base: %.0f trials/s at 1 worker, %.0f at %d workers", one, all, n)
}

// ledger replays a sample of the cell's trials through each layer's
// public functions in the kernel's order, timing every call, and checks
// that each replayed verdict equals faultsim.TrialRunner.Run's.
func (b *bench) ledger(idx int, c sweepCell) error {
	cfg := citadel.DefaultConfig()
	pol, err := scenario.BuildScheme(c.scheme, cfg, scenario.Params(c.params))
	if err != nil {
		return err
	}
	newSource := func() (faultsim.Arrivals, error) {
		if c.model == "" {
			return fault.NewSampler(cfg, c.rates), nil
		}
		factory, err := scenario.BuildFaultModel(c.model, cfg, c.rates, scenario.Params(c.params))
		if err != nil {
			return nil, err
		}
		return factory(), nil
	}
	n := b.size(c.ledgerTrials, 20)
	seed := deriveSeed(b.seed, uint64(idx)+1, 1<<33)
	hours := fault.LifetimeHours

	// Arrivals, timed as one batch into a reused buffer.
	src, err := newSource()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	var buf []fault.Fault
	start := time.Now()
	for i := 0; i < n; i++ {
		buf = src.AppendLifetime(rng, hours, buf[:0])
	}
	appendNs := float64(time.Since(start).Nanoseconds())

	// The same lists again, kept for the kernel and the replay.
	if src, err = newSource(); err != nil {
		return err
	}
	rng = rand.New(rand.NewSource(seed))
	lists := make([][]fault.Fault, n)
	faults := 0
	for i := range lists {
		buf = src.AppendLifetime(rng, hours, buf[:0])
		lists[i] = append([]fault.Fault(nil), buf...)
		faults += len(buf)
	}

	type verdict struct {
		hours float64
		class fault.Class
	}
	runner := faultsim.NewTrialRunner(cfg, pol, 0)
	want := make([]verdict, n)
	start = time.Now()
	for i, fs := range lists {
		if len(fs) == 0 {
			want[i] = verdict{-1, 0}
			continue
		}
		h, cl := runner.Run(fs)
		want[i] = verdict{h, cl}
	}
	runNs := float64(time.Since(start).Nanoseconds())

	rp := newReplayer(cfg, pol)
	mismatches := 0
	for i, fs := range lists {
		if len(fs) == 0 {
			continue
		}
		sampled := b.rec.ShouldSample(uint64(idx)<<40 | uint64(i))
		t0 := b.rec.Now()
		h, cl := rp.run(fs)
		if sampled {
			b.span("trial-replay", c.arrivalLayer(), 2, t0,
				trace.Arg{Key: "trial", Val: float64(i)}, trace.Arg{Key: "faults", Val: float64(len(fs))},
				trace.Arg{Key: "failed", Val: boolVal(h >= 0)}, trace.Arg{Key: "cell", Str: c.id})
		}
		if h != want[i].hours || (h >= 0 && cl != want[i].class) {
			mismatches++
		}
	}
	b.check("replay."+c.id, mismatches == 0,
		fmt.Sprintf("%d of %d replayed verdicts differ from TrialRunner.Run", mismatches, n))

	nf := float64(n)
	children := rp.applyNs + rp.resetNs + rp.addNs + rp.removeNs + rp.offerNs
	p := "faultsim." + c.id
	b.set(p+".run_ns_per_trial", runNs/nf, "ns")
	b.set(p+".self_ns_per_trial", (runNs-children)/nf, "ns")
	p = c.arrivalLayer() + "." + c.id
	b.set(p+".append_ns_per_trial", appendNs/nf, "ns")
	b.set(p+".faults_per_trial", float64(faults)/nf, "count")
	b.info("%s ledger base: %d sampled trials, %d faults, clock-read cost %.1f ns subtracted per timed call",
		c.id, n, faults, rp.clock)
	if c.swapAndSpare {
		p = "tsv." + c.id
		b.set(p+".apply_calls", float64(rp.applyCalls), "count")
		b.set(p+".apply_ns", ratio(rp.applyNs, float64(rp.applyCalls)), "ns")
		b.set(p+".reset_ns", ratio(rp.resetNs, float64(rp.resetCalls)), "ns")
		b.set(p+".repaired_ratio", ratio(float64(rp.repaired), float64(rp.applyCalls)), "ratio")
		b.info("%s base: %d applies (%d repaired), %d resets", p, rp.applyCalls, rp.repaired, rp.resetCalls)
		p = "sparing." + c.id
		b.set(p+".offer_calls", float64(rp.offerCalls), "count")
		b.set(p+".offer_ns", ratio(rp.offerNs, float64(rp.offerCalls)), "ns")
		b.set(p+".spared_ratio", ratio(float64(rp.spared), float64(rp.offerCalls)), "ratio")
		b.info("%s base: %d offers, %d spared", p, rp.offerCalls, rp.spared)
	}
	p = "ecc." + c.id
	b.set(p+".add_calls", float64(rp.addCalls), "count")
	b.set(p+".add_ns", ratio(rp.addNs, float64(rp.addCalls)), "ns")
	b.set(p+".remove_ns", ratio(rp.removeNs, float64(rp.removeCalls)), "ns")
	b.info("%s base: %d adds, %d removes", p, rp.addCalls, rp.removeCalls)
	return nil
}

func boolVal(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// replayer re-executes the trial kernel's per-arrival steps through the
// layers' public types — tsv.Swapper, the ecc incremental state and the
// policy's sparer — timing each call. It mirrors the engine's order:
// scrub before an arrival that crosses a scrub boundary (transients
// removed, permanents offered to the sparer until a pass spares nothing),
// TSV-SWAP on TSV arrivals, then the correctability update.
type replayer struct {
	pol     faultsim.Policy
	scrub   float64
	swapper *tsv.Swapper
	sparer  faultsim.Sparer
	inc     ecc.IncrementalState
	perm    []fault.Fault
	trans   []fault.Fault
	scratch []fault.Fault
	drop    []bool
	clock   float64 // mean cost of one timed empty interval, ns

	applyCalls, resetCalls, repaired, addCalls, removeCalls, offerCalls, spared int
	applyNs, resetNs, addNs, removeNs, offerNs                                  float64
}

func newReplayer(cfg citadel.Config, pol faultsim.Policy) *replayer {
	rp := &replayer{pol: pol, scrub: faultsim.DefaultScrubIntervalHours, clock: clockCost()}
	if pol.UseTSVSwap {
		if pol.TSVStandbyPool > 0 {
			rp.swapper = tsv.NewSwapperWithPool(cfg, pol.TSVStandbyPool)
		} else {
			rp.swapper = tsv.NewSwapper(cfg)
		}
	}
	if pol.NewSparer != nil {
		rp.sparer = pol.NewSparer(cfg)
	}
	if ip, ok := pol.Predicate.(ecc.IncrementalPredicate); ok {
		rp.inc = ip.Begin()
	}
	return rp
}

// clockCost estimates what one time.Now/time.Since pair adds to a timed
// call, so per-call times report the call, not the clock.
func clockCost() float64 {
	const n = 20000
	var total time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		total += time.Since(t)
	}
	return float64(total.Nanoseconds()) / n
}

func (rp *replayer) since(t time.Time) float64 {
	return float64(time.Since(t).Nanoseconds()) - rp.clock
}

func (rp *replayer) resetSwapper() {
	t := time.Now()
	rp.swapper.Reset()
	rp.resetNs += rp.since(t)
	rp.resetCalls++
}

// applyTSV runs TSV-SWAP on a TSV arrival; true means it was repaired.
func (rp *replayer) applyTSV(f fault.Fault) bool {
	t := time.Now()
	_, repaired := rp.swapper.Apply(f)
	rp.applyNs += rp.since(t)
	rp.applyCalls++
	if repaired {
		rp.repaired++
	}
	return repaired
}

func (rp *replayer) add(f fault.Fault) bool {
	if rp.inc == nil {
		rp.scratch = append(append(rp.scratch[:0], rp.perm...), rp.trans...)
		t := time.Now()
		bad := rp.pol.Predicate.Uncorrectable(rp.scratch)
		rp.addNs += rp.since(t)
		rp.addCalls++
		return bad
	}
	t := time.Now()
	bad := rp.inc.Add(f)
	rp.addNs += rp.since(t)
	rp.addCalls++
	return bad
}

func (rp *replayer) remove(f fault.Fault) {
	if rp.inc == nil {
		return
	}
	t := time.Now()
	rp.inc.Remove(f)
	rp.removeNs += rp.since(t)
	rp.removeCalls++
}

// run replays one trial and returns its failure time (negative when it
// survives) and proximate cause, as faultsim.TrialRunner.Run does.
func (rp *replayer) run(faults []fault.Fault) (float64, fault.Class) {
	if len(faults) == 1 {
		return rp.runSingle(faults[0])
	}
	if rp.swapper != nil {
		rp.resetSwapper()
	}
	if r, ok := rp.sparer.(interface{ Reset() }); ok {
		r.Reset()
	} else if rp.pol.NewSparer != nil {
		rp.sparer = rp.pol.NewSparer(citadel.DefaultConfig())
	}
	if rp.inc != nil {
		rp.inc.Reset()
	}
	rp.perm, rp.trans = rp.perm[:0], rp.trans[:0]
	lastScrub := 0
	for _, f := range faults {
		if idx := int(f.Hours / rp.scrub); idx > lastScrub {
			rp.doScrub()
			lastScrub = idx
		}
		if rp.swapper != nil && f.Class.IsTSV() && rp.applyTSV(f) {
			continue
		}
		if f.Persistence == fault.Permanent {
			rp.perm = append(rp.perm, f)
		} else {
			rp.trans = append(rp.trans, f)
		}
		if rp.add(f) {
			return f.Hours, f.Class
		}
	}
	return -1, 0
}

// runSingle mirrors the kernel's one-fault fast path: no scrub and no
// sparing can change a lone arrival's outcome.
func (rp *replayer) runSingle(f fault.Fault) (float64, fault.Class) {
	if rp.swapper != nil && f.Class.IsTSV() {
		rp.resetSwapper()
		if rp.applyTSV(f) {
			return -1, 0
		}
	}
	rp.perm, rp.trans = rp.perm[:0], rp.trans[:0]
	if rp.inc != nil {
		rp.inc.Reset()
	}
	if f.Persistence == fault.Permanent {
		rp.perm = append(rp.perm, f)
	} else {
		rp.trans = append(rp.trans, f)
	}
	if rp.add(f) {
		return f.Hours, f.Class
	}
	return -1, 0
}

func (rp *replayer) doScrub() {
	for _, f := range rp.trans {
		rp.remove(f)
	}
	rp.trans = rp.trans[:0]
	if rp.sparer == nil {
		return
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(rp.perm); i++ {
			t := time.Now()
			spared, extra := rp.sparer.Offer(rp.perm[i], rp.perm)
			rp.offerNs += rp.since(t)
			rp.offerCalls++
			if !spared && len(extra) == 0 {
				continue
			}
			rp.spared++
			drop := rp.drop[:0]
			for range rp.perm {
				drop = append(drop, false)
			}
			rp.drop = drop
			for _, e := range extra {
				drop[e] = true
			}
			if spared {
				drop[i] = true
			}
			kept := rp.perm[:0]
			for j, g := range rp.perm {
				if drop[j] {
					rp.remove(g)
					continue
				}
				kept = append(kept, g)
			}
			rp.perm = kept
			changed = true
			break
		}
	}
}
