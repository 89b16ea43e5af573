package faultsim_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/rare"
	"repro/internal/scenario"
	"repro/internal/stack"
)

// The schedule tests pin that RunTrials's block claiming changes only
// which worker runs a trial, never which trials run or what a run
// returns. A skew stalls one worker on a seeded subset of trials, so the
// workers claim different blocks from run to run.

// skew makes workers of parity odd stall on the trials whose index
// hashes, under seed, into one eighth of the space. Seed 0 never stalls.
type skew struct {
	seed uint64
	odd  int
}

var skews = []skew{{}, {seed: 1, odd: 0}, {seed: 2, odd: 1}}

func (s skew) stalls(worker, i int) bool {
	if s.seed == 0 || worker%2 != s.odd {
		return false
	}
	z := s.seed*0x9e3779b97f4a7c15 + uint64(i)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z^z>>31)%8 == 0
}

// schedule records, across every worker of the runs it wraps, how often
// each trial index ran and how many workers were built.
type schedule struct {
	skew  skew
	mu    sync.Mutex
	runs  map[int]int
	built int
}

func newSchedule(s skew) *schedule { return &schedule{skew: s, runs: make(map[int]int)} }

// install wraps every worker RunTrials builds until the test ends.
func (s *schedule) install(t *testing.T) {
	t.Cleanup(faultsim.SetWrapWorker(func(worker int, tw faultsim.TrialWorker) faultsim.TrialWorker {
		s.mu.Lock()
		s.built++
		s.mu.Unlock()
		return &skewedWorker{TrialWorker: tw, worker: worker, s: s}
	}))
}

// checkOnce asserts every index of [first, first+n) ran exactly once and
// no other index ran.
func (s *schedule) checkOnce(t *testing.T, first, n int) {
	t.Helper()
	if len(s.runs) != n {
		t.Errorf("%d distinct trials ran, want %d", len(s.runs), n)
	}
	for i := first; i < first+n; i++ {
		if s.runs[i] != 1 {
			t.Fatalf("trial %d ran %d times, want once", i, s.runs[i])
		}
	}
}

type skewedWorker struct {
	faultsim.TrialWorker
	worker int
	s      *schedule
}

func (w *skewedWorker) Trial(rng *rand.Rand, i int) bool {
	w.s.mu.Lock()
	w.s.runs[i]++
	w.s.mu.Unlock()
	if w.s.skew.stalls(w.worker, i) {
		time.Sleep(20 * time.Microsecond)
	}
	return w.TrialWorker.Trial(rng, i)
}

// drawWorker is a bare TrialWorker: it records each trial's first draw,
// so a comparison across runs also checks the per-trial streams, and
// fails every fifth trial.
type drawWorker struct {
	mu    *sync.Mutex
	draws map[int]int64
	after func()
}

func (w drawWorker) Trial(rng *rand.Rand, i int) bool {
	x := rng.Int63()
	w.mu.Lock()
	w.draws[i] = x
	w.mu.Unlock()
	if w.after != nil {
		w.after()
	}
	return i%5 == 0
}

func (drawWorker) Scrubs() int64 { return 0 }
func (drawWorker) Fold()         {}

// widths runs f at Workers 1–4 with GOMAXPROCS 4, so every width runs
// whatever the host's core count.
func widths(t *testing.T, f func(t *testing.T, workers int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for workers := 1; workers <= 4; workers++ {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { f(t, workers) })
	}
}

func TestRunTrialsRunsEveryIndexOnce(t *testing.T) {
	widths(t, func(t *testing.T, workers int) {
		for _, first := range []int{0, 12345} {
			for _, n := range []int{1, 2, 7, 200, 3000} {
				var ref map[int]int64
				for _, sk := range skews {
					s := newSchedule(sk)
					s.install(t)
					var mu sync.Mutex
					draws := make(map[int]int64)
					opt := faultsim.Options{Trials: n, Seed: 9, Workers: workers}
					trials, failures, err := faultsim.RunTrialsFrom(context.Background(), opt, faultsim.TrialLoop{}, first,
						func(int) faultsim.TrialWorker { return drawWorker{mu: &mu, draws: draws} })
					if err != nil || trials != n {
						t.Fatalf("first %d n %d: %d trials, err %v", first, n, trials, err)
					}
					s.checkOnce(t, first, n)
					want := 0
					for i := first; i < first+n; i++ {
						if i%5 == 0 {
							want++
						}
					}
					if failures != want {
						t.Errorf("first %d n %d: %d failures, want %d", first, n, failures, want)
					}
					if s.built > min(workers, n) {
						t.Errorf("first %d n %d: %d workers built for %d trials at Workers %d", first, n, s.built, n, workers)
					}
					if ref == nil {
						ref = draws
					} else if !reflect.DeepEqual(draws, ref) {
						t.Fatalf("first %d n %d skew %v: trial streams differ", first, n, sk)
					}
				}
			}
		}
	})
}

// A cancelled run counts exactly the trials it ran, each once.
func TestRunTrialsCancelCountsDistinctTrials(t *testing.T) {
	widths(t, func(t *testing.T, workers int) {
		for _, sk := range skews {
			s := newSchedule(sk)
			s.install(t)
			ctx, cancel := context.WithCancel(context.Background())
			var ran atomic.Int64
			var mu sync.Mutex
			draws := make(map[int]int64)
			after := func() {
				if ran.Add(1) == 500 {
					cancel()
				}
			}
			const n = 100000
			opt := faultsim.Options{Trials: n, Seed: 9, Workers: workers}
			trials, _, err := faultsim.RunTrials(ctx, opt, faultsim.TrialLoop{},
				func(int) faultsim.TrialWorker { return drawWorker{mu: &mu, draws: draws, after: after} })
			cancel()
			if !errors.Is(err, context.Canceled) || trials >= n {
				t.Fatalf("skew %v: %d trials, err %v; want a cancelled partial run", sk, trials, err)
			}
			if trials != len(s.runs) {
				t.Errorf("skew %v: reported %d trials, %d distinct trials ran", sk, trials, len(s.runs))
			}
			for i, c := range s.runs {
				if c != 1 {
					t.Fatalf("skew %v: trial %d ran %d times", sk, i, c)
				}
			}
		}
	})
}

// sameAcrossSchedules runs run under every skew at Workers 1–4 and
// asserts each result DeepEquals the first, and that the trials run are
// exactly [0, trials(result)).
func sameAcrossSchedules[R any](t *testing.T, run func(workers int) R, trials func(R) int) {
	var ref R
	var have bool
	widths(t, func(t *testing.T, workers int) {
		for _, sk := range skews {
			s := newSchedule(sk)
			s.install(t)
			got := run(workers)
			s.checkOnce(t, 0, trials(got))
			if !have {
				ref, have = got, true
			} else if !reflect.DeepEqual(got, ref) {
				t.Fatalf("skew %v: result differs\n got %+v\nwant %+v", sk, got, ref)
			}
		}
	})
}

func schedulePolicy(t *testing.T, scheme string) faultsim.Policy {
	t.Helper()
	pol, err := scenario.BuildScheme(scheme, stack.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

func scheduleOptions(trials int) faultsim.Options {
	return faultsim.Options{
		Config: stack.DefaultConfig(),
		Rates:  fault.Table1().WithTSV(1430),
		Trials: trials,
		Seed:   17,
	}
}

func TestRunContextIndependentOfSchedule(t *testing.T) {
	for _, scheme := range []string{"Symbol8/Same-Bank", "Citadel"} {
		t.Run(scheme, func(t *testing.T) {
			pol := schedulePolicy(t, scheme)
			sameAcrossSchedules(t, func(workers int) faultsim.Result {
				opt := scheduleOptions(3000)
				opt.Workers, opt.Forensics = workers, true
				return faultsim.RunContext(context.Background(), opt, pol)
			}, func(r faultsim.Result) int { return r.Trials })
		})
	}
}

func TestRunAdaptiveIndependentOfSchedule(t *testing.T) {
	pol := schedulePolicy(t, "Symbol8/Same-Bank")
	sameAcrossSchedules(t, func(workers int) faultsim.Result {
		opt := scheduleOptions(0)
		opt.Workers, opt.Forensics = workers, true
		return faultsim.RunAdaptiveContext(context.Background(), faultsim.AdaptiveOptions{
			Options: opt, TargetFailures: 150, BatchTrials: 700, MaxTrials: 5000,
		}, pol)
	}, func(r faultsim.Result) int { return r.Trials })
}

func TestRunCensusIndependentOfSchedule(t *testing.T) {
	sameAcrossSchedules(t, func(workers int) faultsim.Census {
		opt := scheduleOptions(3000)
		opt.Workers = workers
		return faultsim.RunCensusContext(context.Background(), opt, true)
	}, func(c faultsim.Census) int { return c.Trials })
}

func TestRunISIndependentOfSchedule(t *testing.T) {
	pol := schedulePolicy(t, "Citadel")
	sameAcrossSchedules(t, func(workers int) faultsim.Result {
		opt := scheduleOptions(3000)
		opt.Workers = workers
		return rare.RunISContext(context.Background(), rare.Options{Options: opt}, pol)
	}, func(r faultsim.Result) int { return r.Trials })
}
