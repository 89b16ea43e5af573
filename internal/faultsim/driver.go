package faultsim

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// TrialWorker is one goroutine's share of a RunTrials loop; the driver
// builds one per worker goroutine, so implementations need no locking.
type TrialWorker interface {
	// Trial runs global trial i on rng, which the driver has just
	// reseeded to trial i's own stream, and reports whether it failed.
	Trial(rng *rand.Rand, i int) (failed bool)
	// Scrubs returns the scrub passes run so far, for progress.
	Scrubs() int64
	// Fold adds the worker's tallies into the run's result, once, after
	// its last trial, serialized with the other workers' folds. Tallies
	// must be integers (or integer-valued floats below 2^53) so the fold
	// order cannot change the result.
	Fold()
}

// TrialLoop describes one RunTrials run.
type TrialLoop struct {
	// Policy labels progress snapshots.
	Policy string
	// Rare draws the trial streams from the importance-sampling space, so
	// a biased and a naive run sharing a seed stay independent.
	Rare bool
	// Trials, Failures and Scrubs are the process-wide counters the loop
	// feeds as it runs; a nil counter is skipped.
	Trials, Failures, Scrubs *obs.Counter
	// first is the global index of the first trial (adaptive batches).
	first int
}

// RunTrials runs opt.Trials trials over up to opt.Workers workers. The
// calling goroutine is worker 0 and spawns the others; every worker
// claims blocks of consecutive trial indices from one shared cursor until
// none are left, so a worker that starts late or runs slow trials simply
// claims fewer blocks. Trial i draws from its own stream,
// deriveSeed(opt.Seed, i), so the result is a pure function of (options,
// seed) whatever the worker count or schedule. A worker claims its blocks
// in increasing order, so its first K failures include every one of the
// run's first K that it ran. It returns the completed trial and failure
// counts, plus ctx's error if ctx cut the run short; opt.Progress sees
// periodic snapshots and one final snapshot.
func RunTrials(ctx context.Context, opt Options, loop TrialLoop, newWorker func(worker int) TrialWorker) (trials, failures int, err error) {
	opt = opt.withDefaults()
	var streams uint64
	if loop.Rare {
		streams = rareStreamBase
	}
	// Shared run state in one allocation. Workers flush tallies into the
	// counters every cancelCheckInterval trials, not per trial.
	var run struct {
		next                     atomic.Int64 // first unclaimed trial, relative to loop.first
		trials, failures, scrubs atomic.Int64
		mu                       sync.Mutex
		workers, reporter        sync.WaitGroup
	}
	start := time.Now()
	snapshot := func(done bool) Progress {
		return Progress{
			Policy:       loop.Policy,
			RunID:        opt.RunID,
			TrialsDone:   int(run.trials.Load()),
			TrialsTarget: opt.Trials,
			Failures:     int(run.failures.Load()),
			ScrubPasses:  run.scrubs.Load(),
			Elapsed:      time.Since(start),
			Done:         done,
		}
	}
	quit := make(chan struct{})
	if opt.Progress != nil {
		interval := opt.ProgressInterval
		if interval <= 0 {
			interval = time.Second
		}
		run.reporter.Add(1)
		go func() {
			defer run.reporter.Done()
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-quit:
					return
				case <-tick.C:
					opt.Progress(snapshot(false))
				}
			}
		}()
	}

	// About 32 blocks per worker: small enough that a late or slow worker
	// costs the run little, large enough that claims stay rare.
	n := opt.Trials
	block := min(max(n/(opt.Workers*32), 1), cancelCheckInterval)
	work := func(worker int) {
		tw := newWorker(worker)
		if wrapWorker != nil {
			tw = wrapWorker(worker, tw)
		}
		src := &trialSource{}
		rng := rand.New(src)
		// Read the invariants once: a heap read per trial can share a
		// cache line with another worker's writes.
		seed, streams, first := opt.Seed, streams, loop.first
		var done, failed, flushedDone, flushedFailed int
		var flushedScrubs int64
		flush := func() {
			scrubs := tw.Scrubs()
			dt, df, ds := int64(done-flushedDone), int64(failed-flushedFailed), scrubs-flushedScrubs
			run.trials.Add(dt)
			run.failures.Add(df)
			run.scrubs.Add(ds)
			addCount(loop.Trials, dt)
			addCount(loop.Failures, df)
			addCount(loop.Scrubs, ds)
			flushedDone, flushedFailed, flushedScrubs = done, failed, scrubs
		}
	claim:
		for {
			lo := int(run.next.Add(int64(block))) - block
			if lo >= n {
				break
			}
			for i, hi := first+lo, first+min(lo+block, n); i < hi; i++ {
				if done%cancelCheckInterval == 0 {
					flush()
					if ctx.Err() != nil {
						break claim
					}
				}
				done++
				src.seedTrial(seed, streams+uint64(i))
				if tw.Trial(rng, i) {
					failed++
				}
			}
		}
		flush()
		run.mu.Lock()
		tw.Fold()
		run.mu.Unlock()
	}
	if n > 0 {
		for w := 1; w < min(opt.Workers, (n+block-1)/block); w++ {
			run.workers.Add(1)
			go func() {
				defer run.workers.Done()
				work(w)
			}()
		}
		work(0)
	}
	run.workers.Wait()
	close(quit)
	run.reporter.Wait() // no periodic snapshot may race the final one
	trials, failures = int(run.trials.Load()), int(run.failures.Load())
	if trials < opt.Trials {
		err = ctx.Err()
	}
	if opt.Progress != nil {
		opt.Progress(snapshot(true))
	}
	return trials, failures, err
}

// wrapWorker, when non-nil, wraps every worker RunTrials builds. Tests
// set it to record and skew the schedule; it is nil otherwise.
var wrapWorker func(worker int, tw TrialWorker) TrialWorker

func addCount(c *obs.Counter, n int64) {
	if c != nil {
		c.Add(n)
	}
}
