// Package rare estimates tail failure probabilities that naive Monte
// Carlo cannot resolve. Citadel-class schemes push 7-year uncorrectable
// probabilities to ~1e-5 and below, so a realistic trial budget sees
// zero failures and learns only an upper bound. This package supplies
// the standard rare-event toolkit over the faultsim engine:
//
//   - Importance sampling (RunIS): the Poisson fault-arrival process is
//     biased toward the large-granularity classes (column and above —
//     bank, TSV) that dominate uncorrectable states, and every failing
//     trial is unbiased by its likelihood ratio. Results ride the
//     ordinary faultsim.Result (Weighted fields), so Merge, chunked
//     campaigns, and the cluster executor carry them unchanged.
//
//   - Multilevel splitting (RunSplit): an independent estimator that
//     conditions on the number of simultaneously-live faults, used to
//     cross-validate the importance-sampled answer without sharing its
//     bias machinery.
//
// Biasing only the arrival rates leaves placement and arrival-time
// distributions untouched, so the per-trial likelihood ratio depends
// only on the large-granularity event count n:
//
//	w = Π_c e^{λ'_c−λ_c} (λ_c/λ'_c)^{n_c} = e^{(B−1)Λ} B^{−n}
//
// with Λ the total expected large-granularity events per lifetime
// (fault.Rates.LargeLambda) and B the bias factor.
package rare

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/faultsim"
)

// DefaultBiasFactor inflates large-granularity rates 16×. At Table-I
// rates Λ is a few tenths, so exp((B−1)Λ) stays modest while B^(−n)
// concentrates weight on the multi-fault trials that actually fail;
// empirically this lands within a factor of a few of the
// variance-optimal bias across the paper's configurations.
const DefaultBiasFactor = 16

// Options configures an importance-sampled run. The embedded
// faultsim.Options keep their meaning; Rates are the *physical* rates —
// the engine applies the bias internally and reports unbiased estimates.
type Options struct {
	faultsim.Options
	// BiasFactor multiplies every large-granularity FIT rate during
	// sampling (>= 1; 0 selects DefaultBiasFactor, 1 degenerates to
	// plain Monte Carlo with unit weights).
	BiasFactor float64
}

// withDefaults mirrors faultsim's effective defaults (trials, lifetime,
// scrub interval) and fills the bias factor; the trial driver clamps the
// worker count.
func (o Options) withDefaults() Options {
	if o.LifetimeHours == 0 {
		o.LifetimeHours = fault.LifetimeHours
	}
	if o.ScrubIntervalHours == 0 {
		o.ScrubIntervalHours = faultsim.DefaultScrubIntervalHours
	}
	if o.Trials == 0 {
		o.Trials = 100000
	}
	if o.BiasFactor == 0 {
		o.BiasFactor = DefaultBiasFactor
	}
	return o
}

// policyName mirrors faultsim's effective policy naming.
func policyName(pol faultsim.Policy) string {
	if pol.Name != "" {
		return pol.Name
	}
	return pol.Predicate.Name()
}

// RunIS estimates failure probability with importance sampling; it
// cannot be interrupted (see RunISContext).
func RunIS(opt Options, pol faultsim.Policy) faultsim.Result {
	return RunISContext(context.Background(), opt, pol)
}

// RunISContext runs the importance-sampled estimator. Worker goroutines
// draw fault histories under the biased rates and weight every failing
// trial by its likelihood ratio; the returned Result is Weighted, and
// its Probability/CI95/ESS report the unbiased estimate. Cancellation
// mirrors the plain engine: completed trials are kept and the Result is
// marked Partial.
//
// Trial streams come from a space disjoint from the plain engine's, so an
// IS run and a naive run sharing a seed are independent. The weight
// exp(delta − n·lnB) takes one value per large-fault count n, so workers
// tally integer counts by n and the weighted sums are formed after the
// join, in increasing n: the result does not depend on the worker count.
func RunISContext(ctx context.Context, opt Options, pol faultsim.Policy) faultsim.Result {
	opt = opt.withDefaults()
	years := int(math.Ceil(opt.LifetimeHours / fault.HoursPerYear))
	res := faultsim.Result{
		Policy:           policyName(pol),
		Weighted:         true,
		FailuresByYear:   make([]int, years),
		FailWeightByYear: make([]float64, years),
		CauseCounts:      make(map[string]int),
	}
	biased := opt.Rates.BiasLarge(opt.BiasFactor)
	mRareRunsActive.Inc()
	defer mRareRunsActive.Dec()
	var byBig [][]int
	loop := faultsim.TrialLoop{Policy: policyName(pol), Rare: true, Trials: mRareTrials, Failures: mRareFailures}
	res.Trials, res.Failures, res.Err = faultsim.RunTrials(ctx, opt.Options, loop, func(int) faultsim.TrialWorker {
		return &isWorker{
			opt:     &opt,
			years:   years,
			sampler: fault.NewSampler(opt.Config, biased),
			runner:  faultsim.NewTrialRunner(opt.Config, pol, opt.ScrubIntervalHours),
			causes:  make(map[string]int),
			total:   &byBig,
			res:     &res,
		}
	})
	res.Partial = res.Err != nil
	// Likelihood-ratio constants: log w = delta − n·lnB per trial.
	delta := (opt.BiasFactor - 1) * opt.Rates.LargeLambda(opt.Config, opt.LifetimeHours)
	lnB := math.Log(opt.BiasFactor)
	for n, cum := range byBig {
		w := math.Exp(delta - float64(n)*lnB)
		k := float64(cum[years-1])
		res.FailWeight += k * w
		res.FailWeightSq += k * w * w
		for y, c := range cum {
			res.FailuresByYear[y] += c
			res.FailWeightByYear[y] += float64(c) * w
		}
	}
	return res
}

// isWorker is RunISContext's TrialWorker.
type isWorker struct {
	opt     *Options
	years   int
	sampler *fault.Sampler
	runner  *faultsim.TrialRunner
	buf     []fault.Fault
	// byBig[n][y] counts failing trials with n large-granularity faults
	// that failed within the first y+1 years (cumulative).
	byBig  [][]int
	causes map[string]int
	total  *[][]int
	res    *faultsim.Result
}

func (w *isWorker) Trial(rng *rand.Rand, _ int) bool {
	w.buf = w.sampler.AppendLifetime(rng, w.opt.LifetimeHours, w.buf[:0])
	if len(w.buf) == 0 {
		return false
	}
	when, cause := w.runner.Run(w.buf)
	if when < 0 {
		return false
	}
	nBig := 0
	for _, f := range w.buf {
		if f.Class.LargeGranularity() {
			nBig++
		}
	}
	w.byBig = growCounts(w.byBig, nBig, w.years)
	w.causes[cause.String()]++
	for y := min(int(when/fault.HoursPerYear), w.years-1); y < w.years; y++ {
		w.byBig[nBig][y]++
	}
	return true
}

func (w *isWorker) Scrubs() int64 { return w.runner.Scrubs() }

func (w *isWorker) Fold() {
	for n, cum := range w.byBig {
		*w.total = growCounts(*w.total, n, w.years)
		for y, c := range cum {
			(*w.total)[n][y] += c
		}
	}
	for k, v := range w.causes {
		w.res.CauseCounts[k] += v
	}
}

// growCounts extends counts with zeroed rows of length years until row n
// exists.
func growCounts(counts [][]int, n, years int) [][]int {
	for len(counts) <= n {
		counts = append(counts, make([]int, years))
	}
	return counts
}
