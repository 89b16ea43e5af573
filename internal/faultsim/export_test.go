package faultsim

import "context"

// SetWrapWorker installs w around every worker RunTrials builds until
// the returned restore runs.
func SetWrapWorker(w func(worker int, tw TrialWorker) TrialWorker) (restore func()) {
	prev := wrapWorker
	wrapWorker = w
	return func() { wrapWorker = prev }
}

// RunTrialsFrom is RunTrials over the trial range that starts at first,
// as an adaptive batch runs.
func RunTrialsFrom(ctx context.Context, opt Options, loop TrialLoop, first int, newWorker func(int) TrialWorker) (int, int, error) {
	loop.first = first
	return RunTrials(ctx, opt, loop, newWorker)
}
