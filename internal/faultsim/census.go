package faultsim

import (
	"context"
	"math/rand"
	"sort"

	"repro/internal/fault"
	"repro/internal/tsv"
)

// Census tallies the anatomy of permanent faults over device lifetimes,
// reproducing the analyses behind the paper's Figure 17 (rows needed to
// spare a faulty bank is bimodal) and Table III (number of failed banks in
// systems with at least one).
type Census struct {
	// Trials counts the lifetimes actually simulated; fewer than
	// requested when the census was cancelled (see Partial).
	Trials int
	// RowsHistogram[n] counts faulty banks that would need n spare rows.
	RowsHistogram map[int]int
	// FailedBanksPerSystem[k] counts trials whose system ended with exactly
	// k failed banks (banks needing more than FailedBankThreshold rows).
	FailedBanksPerSystem map[int]int
	// TrialsWithBankFailure counts trials with at least one failed bank.
	TrialsWithBankFailure int
	// FailedBankThreshold is the DDS escalation rule (paper: 4 rows).
	FailedBankThreshold int
	// Partial reports that the census was cancelled before all requested
	// trials completed; the tallies cover the completed trials only.
	Partial bool
}

// FaultyBankTotal returns the total number of faulty banks observed.
func (c Census) FaultyBankTotal() int {
	total := 0
	for _, n := range c.RowsHistogram {
		total += n
	}
	return total
}

// RowsPercent returns the percentage of faulty banks needing exactly n
// spare rows.
func (c Census) RowsPercent(n int) float64 {
	total := c.FaultyBankTotal()
	if total == 0 {
		return 0
	}
	return 100 * float64(c.RowsHistogram[n]) / float64(total)
}

// FailedBanksPercent returns the Table-III distribution: the percentage of
// bank-failure systems having exactly k failed banks (k>=3 aggregates into
// the last bucket when aggregate3Plus is true).
func (c Census) FailedBanksPercent(k int, aggregate3Plus bool) float64 {
	if c.TrialsWithBankFailure == 0 {
		return 0
	}
	count := 0
	if aggregate3Plus && k >= 3 {
		for kk, n := range c.FailedBanksPerSystem {
			if kk >= 3 {
				count += n
			}
		}
	} else {
		count = c.FailedBanksPerSystem[k]
	}
	return 100 * float64(count) / float64(c.TrialsWithBankFailure)
}

// SortedRowCounts returns the distinct row counts in ascending order.
func (c Census) SortedRowCounts() []int {
	keys := make([]int, 0, len(c.RowsHistogram))
	for k := range c.RowsHistogram {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// RunCensus simulates lifetimes and tallies permanent-fault anatomy.
// useTSVSwap filters TSV faults through TSV-SWAP first, as the DDS analysis
// assumes (paper §V-D: "all systems employ TSV-Swap for the remainder").
func RunCensus(opt Options, useTSVSwap bool) Census {
	return RunCensusContext(context.Background(), opt, useTSVSwap)
}

// RunCensusContext is RunCensus under a context: workers check ctx
// between trial batches and a cancelled run returns the tallies gathered
// so far, marked Partial. Trials draw from the same per-trial streams as
// RunContext.
func RunCensusContext(ctx context.Context, opt Options, useTSVSwap bool) Census {
	opt = opt.withDefaults()
	c := Census{
		RowsHistogram:        make(map[int]int),
		FailedBanksPerSystem: make(map[int]int),
		FailedBankThreshold:  4,
	}
	mRunsActive.Inc()
	defer mRunsActive.Dec()
	trials, _, err := RunTrials(ctx, opt, TrialLoop{Policy: "census", Trials: mTrials}, func(int) TrialWorker {
		w := &censusWorker{
			opt: &opt, c: &c,
			sampler:    fault.NewSampler(opt.Config, opt.Rates),
			perBank:    make(map[int]int),
			rowsHist:   make(map[int]int),
			failedHist: make(map[int]int),
		}
		if useTSVSwap {
			w.swapper = tsv.NewSwapper(opt.Config)
		}
		return w
	})
	c.Trials, c.Partial = trials, err != nil
	return c
}

// censusWorker is RunCensusContext's TrialWorker; like trialState, it
// resets its pools per trial instead of reallocating them.
type censusWorker struct {
	opt     *Options
	c       *Census
	sampler *fault.Sampler
	swapper *tsv.Swapper
	buf     []fault.Fault
	// perBank holds the rows needed per bank, keyed by dense bank id
	// including the metadata die.
	perBank               map[int]int
	rowsHist, failedHist  map[int]int
	trialsWithBankFailure int
}

func (w *censusWorker) Trial(rng *rand.Rand, _ int) bool {
	cfg := w.opt.Config
	dies := cfg.DataDies + cfg.ECCDies
	w.buf = w.sampler.AppendLifetime(rng, w.opt.LifetimeHours, w.buf[:0])
	if w.swapper != nil {
		w.swapper.Reset()
	}
	clear(w.perBank)
	for _, f := range w.buf {
		if f.Persistence != fault.Permanent {
			continue
		}
		if w.swapper != nil && f.Class.IsTSV() {
			if _, repaired := w.swapper.Apply(f); repaired {
				continue
			}
		}
		rows := f.RowsNeedingSparing(cfg)
		for die := 0; die < dies; die++ {
			if !f.Region.Die.Contains(uint32(die)) {
				continue
			}
			for bank := 0; bank < cfg.BanksPerDie; bank++ {
				if !f.Region.Bank.Contains(uint32(bank)) {
					continue
				}
				id := (f.Region.Stack*dies+die)*cfg.BanksPerDie + bank
				w.perBank[id] = min(w.perBank[id]+rows, cfg.RowsPerBank)
			}
		}
	}
	failed := 0
	for _, rows := range w.perBank {
		w.rowsHist[rows]++
		if rows > w.c.FailedBankThreshold {
			failed++
		}
	}
	if failed > 0 {
		w.trialsWithBankFailure++
		w.failedHist[failed]++
	}
	return false
}

func (w *censusWorker) Scrubs() int64 { return 0 }

func (w *censusWorker) Fold() {
	for k, v := range w.rowsHist {
		w.c.RowsHistogram[k] += v
	}
	for k, v := range w.failedHist {
		w.c.FailedBanksPerSystem[k] += v
	}
	w.c.TrialsWithBankFailure += w.trialsWithBankFailure
}
