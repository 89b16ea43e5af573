package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"

	citadel "repro"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/store"
)

// nolog discards orchestrator and store chatter.
func nolog(string, ...any) {}

// trialsTotal reads the engine's process-wide trial counter; cache-hit
// tests assert it stays flat.
func trialsTotal() int64 {
	return obs.Default().Counter("citadel_faultsim_trials_total", "").Value()
}

func newOrch(t *testing.T, dir string, workers, depth int) (*Orchestrator, *store.Store) {
	t.Helper()
	st, err := store.Open(dir, store.Options{Logf: nolog})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	o := New(Options{Store: st, Workers: workers, QueueDepth: depth, Logf: nolog})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		o.Close(ctx)
	})
	return o, st
}

// smallSpec is a campaign cheap enough for unit tests: a few thousand
// trials split into enough chunks to exercise checkpointing.
func smallSpec(seed int64) Spec {
	return Spec{Reliability: &ReliabilitySpec{
		Scheme:           "Citadel",
		Trials:           2000,
		CheckpointTrials: 500,
		Workers:          1,
		Seed:             seed,
		TSVFIT:           1430,
	}}
}

func waitDone(t *testing.T, o *Orchestrator, id string) *Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	j, err := o.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v (state %s)", id, err, j.State)
	}
	return j
}

func TestKeyNormalizesDefaults(t *testing.T) {
	implicit := Spec{Kind: KindReliability, Reliability: &ReliabilitySpec{Scheme: "Citadel"}}
	explicit := Spec{
		Priority: 7, // excluded from the key
		Reliability: &ReliabilitySpec{
			Scheme:           "Citadel",
			Trials:           100000,
			LifetimeYears:    7,
			ScrubHours:       12,
			Workers:          runtime.GOMAXPROCS(0),
			CheckpointTrials: DefaultCheckpointTrials,
		},
	}
	ki, err := implicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	ke, err := explicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ki != ke {
		t.Errorf("defaulted spec and explicit-defaults spec hash differently:\n  %s\n  %s", ki, ke)
	}
	other := implicit
	other.Reliability = &ReliabilitySpec{Scheme: "Citadel", Seed: 99}
	ko, err := other.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ko == ki {
		t.Error("different seeds share a content key")
	}
}

func TestSubmitValidation(t *testing.T) {
	o, _ := newOrch(t, t.TempDir(), 1, 4)
	if _, err := o.Submit(Spec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := o.Submit(Spec{Reliability: &ReliabilitySpec{Scheme: "NoSuchScheme"}}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := o.Submit(Spec{
		Reliability: &ReliabilitySpec{Scheme: "Citadel"},
		Performance: &PerformanceSpec{Benchmark: "mcf"},
	}); err == nil {
		t.Error("two sub-specs accepted")
	}
}

func TestReliabilityJobRunsAndCaches(t *testing.T) {
	dir := t.TempDir()
	o, st := newOrch(t, dir, 1, 4)
	j, err := o.Submit(smallSpec(1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.State != StateQueued && j.State != StateRunning {
		t.Fatalf("fresh job state = %s", j.State)
	}
	fin := waitDone(t, o, j.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", fin.State, fin.Error)
	}
	if fin.ChunksDone != 4 || fin.TotalChunks != 4 {
		t.Errorf("chunks = %d/%d, want 4/4", fin.ChunksDone, fin.TotalChunks)
	}
	if fin.TrialsDone != 2000 {
		t.Errorf("trialsDone = %d, want 2000", fin.TrialsDone)
	}
	if len(fin.Result) == 0 {
		t.Fatal("done job has no result payload")
	}
	// The finished campaign's checkpoint is gone; its result is cached.
	if _, ok := st.GetJob(fin.Key); ok {
		t.Error("checkpoint survived completion")
	}
	if _, ok := st.GetResult(fin.Key); !ok {
		t.Error("result not in the content-addressed store")
	}

	// A second orchestrator over the same store answers the same spec
	// from cache: zero new trials.
	o2, _ := newOrch(t, dir, 1, 4)
	before := trialsTotal()
	j2, err := o2.Submit(smallSpec(1))
	if err != nil {
		t.Fatalf("cached Submit: %v", err)
	}
	if !j2.Cached || j2.State != StateDone {
		t.Fatalf("cached=%v state=%s, want cached done", j2.Cached, j2.State)
	}
	if !bytes.Equal(j2.Result, fin.Result) {
		t.Error("cached result differs from the computed one")
	}
	if after := trialsTotal(); after != before {
		t.Errorf("cache hit ran %d new trials, want 0", after-before)
	}
}

// TestCrashResumeDifferential is the durability acceptance test: a
// campaign checkpointed mid-flight and resumed by a fresh orchestrator
// must produce a result bit-identical to the same campaign run
// uninterrupted.
func TestCrashResumeDifferential(t *testing.T) {
	spec := Spec{Reliability: &ReliabilitySpec{
		Scheme:           "Citadel",
		Trials:           8000,
		CheckpointTrials: 400, // 20 chunks
		Workers:          1,
		Seed:             42,
		TSVFIT:           1430,
	}}

	// Reference: uninterrupted run.
	oA, _ := newOrch(t, t.TempDir(), 1, 4)
	jA, err := oA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	finA := waitDone(t, oA, jA.ID)
	if finA.State != StateDone {
		t.Fatalf("reference run: %s (%s)", finA.State, finA.Error)
	}

	// Interrupted run: the orchestrator is closed while its campaign
	// blocks after the third committed chunk.
	dirB, keyB := interruptAfterChunks(t, spec, 3)

	// Fresh orchestrator, same store: Recover re-enqueues, the campaign
	// resumes from its checkpoint and must match the reference exactly.
	oB2, _ := newOrch(t, dirB, 1, 4)
	if n := oB2.Recover(); n != 1 {
		t.Fatalf("Recover = %d, want 1", n)
	}
	list := oB2.List()
	if len(list) != 1 {
		t.Fatalf("recovered orchestrator lists %d jobs, want 1", len(list))
	}
	if !list[0].Resumed {
		t.Error("recovered job not marked resumed")
	}
	if list[0].ChunksDone != 3 {
		t.Errorf("recovered job starts at chunk %d, want 3", list[0].ChunksDone)
	}
	if list[0].Key != keyB {
		t.Errorf("recovered key %.12s, want %.12s", list[0].Key, keyB)
	}
	finB := waitDone(t, oB2, list[0].ID)
	if finB.State != StateDone {
		t.Fatalf("resumed run: %s (%s)", finB.State, finB.Error)
	}
	if !bytes.Equal(finA.Result, finB.Result) {
		t.Errorf("resumed result differs from uninterrupted run:\nA: %.200s\nB: %.200s", finA.Result, finB.Result)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	o, st := newOrch(t, t.TempDir(), 1, 8)
	long := Spec{Reliability: &ReliabilitySpec{
		Scheme: "Citadel", Trials: 2_000_000, CheckpointTrials: 100000, Workers: 1, Seed: 5, TSVFIT: 1430,
	}}
	running, err := o.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the long job occupies the single worker.
	deadline := time.Now().Add(time.Minute)
	for {
		s, _ := o.Status(running.ID)
		if s.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("long job never started")
		}
		runtime.Gosched()
	}
	queued, err := o.Submit(smallSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Cancel(queued.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if s, _ := o.Status(queued.ID); s.State != StateCancelled {
		t.Errorf("queued job state after cancel = %s", s.State)
	}
	if _, ok := st.GetJob(queued.Key); ok {
		t.Error("cancelled queued job left a checkpoint behind")
	}

	if err := o.Cancel(running.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	fin := waitDone(t, o, running.ID)
	if fin.State != StateCancelled {
		t.Errorf("running job state after cancel = %s", fin.State)
	}
	if _, ok := st.GetJob(running.Key); ok {
		t.Error("user-cancelled job left a checkpoint (would resurrect on restart)")
	}

	if err := o.Cancel(running.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("cancel finished = %v, want ErrFinished", err)
	}
	if err := o.Cancel("j-nope-1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown = %v, want ErrNotFound", err)
	}
}

func TestQueueFullAndCoalesce(t *testing.T) {
	o, _ := newOrch(t, t.TempDir(), 1, 1)
	long := Spec{Reliability: &ReliabilitySpec{
		Scheme: "Citadel", Trials: 2_000_000, CheckpointTrials: 100000, Workers: 1, Seed: 7, TSVFIT: 1430,
	}}
	a, err := o.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for o.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		runtime.Gosched()
	}
	// Same spec while active coalesces onto the running job.
	dup, err := o.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != a.ID {
		t.Errorf("duplicate submit got job %s, want coalesced %s", dup.ID, a.ID)
	}
	b, err := o.Submit(smallSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Submit(smallSpec(9)); !errors.Is(err, ErrQueueFull) {
		t.Errorf("submit past queue bound = %v, want ErrQueueFull", err)
	}
	o.Cancel(b.ID)
	o.Cancel(a.ID)
}

func TestRecoverSkipsCorruptCheckpoints(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Logf: nolog})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutJob("deadbeef", []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	// Valid JSON, but the embedded key does not match the file stem.
	if err := st.PutJob("cafebabe", []byte(`{"version":1,"key":"something-else","spec":{}}`)); err != nil {
		t.Fatal(err)
	}
	o := New(Options{Store: st, Workers: 1, QueueDepth: 4, Logf: nolog})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		o.Close(ctx)
	})
	if n := o.Recover(); n != 0 {
		t.Errorf("Recover = %d, want 0", n)
	}
	if _, ok := st.GetJob("deadbeef"); ok {
		t.Error("corrupt checkpoint not deleted")
	}
	if _, ok := st.GetJob("cafebabe"); ok {
		t.Error("key-mismatched checkpoint not deleted")
	}
}

// TestRecoverDiscardsStaleCheckpoint: a checkpoint whose stored key is
// not the key its spec hashes to now — one written under an older RNG
// stream layout, say — is discarded rather than resumed, since resuming
// would mix two stream layouts in one result. The same checkpoint under
// its current key recovers.
func TestRecoverDiscardsStaleCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Logf: nolog})
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec(11).Normalize()
	current, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	stale, err := store.Key(spec) // the spec hashed without its stream version
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{current, stale} {
		chunk, err := RunChunk(context.Background(), spec.Reliability, 0, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(checkpoint{
			Version: checkpointVersion, Key: key, Spec: spec,
			ChunksDone: 1, TotalChunks: 4, Result: &chunk,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutJob(key, data); err != nil {
			t.Fatal(err)
		}
	}
	o := New(Options{Store: st, Workers: 1, QueueDepth: 4, Logf: nolog})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		o.Close(ctx)
	})
	if n := o.Recover(); n != 1 {
		t.Fatalf("Recover = %d, want 1 (only the current-key checkpoint)", n)
	}
	if _, ok := st.GetJob(stale); ok {
		t.Error("stale-key checkpoint not deleted")
	}
	list := o.List()
	if len(list) != 1 || list[0].Key != current || !list[0].Resumed {
		t.Fatalf("recovered jobs = %+v, want one resumed job under the current key", list)
	}
	if fin := waitDone(t, o, list[0].ID); fin.State != StateDone {
		t.Fatalf("recovered job: %s (%s)", fin.State, fin.Error)
	}
}

// pausingExec is a ChunkExecutor that runs chunks in-process with
// RunChunk, as the local path does. Once pauseAfter chunks are
// committed it closes paused and blocks until the campaign's context is
// cancelled. It gives the crash/resume tests an interruption point that
// does not depend on how fast the kernel runs.
type pausingExec struct {
	pauseAfter int
	paused     chan struct{}
}

func (e *pausingExec) ExecuteChunks(ctx context.Context, c Campaign, commit func(int, citadel.Result) error) error {
	for i := c.Start; i < c.Total; i++ {
		res, err := RunChunk(ctx, &c.Spec, i, c.RunID, nil)
		if err != nil {
			return err
		}
		if res.Partial {
			return ctx.Err()
		}
		if err := commit(i, res); err != nil {
			return err
		}
		if i+1 == e.pauseAfter {
			close(e.paused)
			<-ctx.Done()
			return ctx.Err()
		}
	}
	return nil
}

// interruptAfterChunks submits spec to an orchestrator over a fresh
// store, closes the orchestrator once chunks chunks are checkpointed,
// and checks that the campaign was left resumable. It returns the store
// directory and the campaign's key.
func interruptAfterChunks(t *testing.T, spec Spec, chunks int) (string, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Logf: nolog})
	if err != nil {
		t.Fatal(err)
	}
	exec := &pausingExec{pauseAfter: chunks, paused: make(chan struct{})}
	o := New(Options{Store: st, Workers: 1, QueueDepth: 4, Logf: nolog, ChunkExec: exec})
	j, err := o.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-exec.paused:
	case <-time.After(2 * time.Minute):
		t.Fatal("campaign did not reach its interruption point")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := o.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s, _ := o.Status(j.ID)
	if s.State != StateQueued || s.ChunksDone != chunks {
		t.Fatalf("interrupted job: state %s after %d chunks, want queued after %d", s.State, s.ChunksDone, chunks)
	}
	if cp, ok := st.GetJob(j.Key); !ok || len(cp) == 0 {
		t.Fatal("no checkpoint persisted for the interrupted campaign")
	}
	return dir, j.Key
}

// TestStaleStreamResultNotServed: a result stored under the key the
// spec had in the previous stream layout is never served for it; the
// campaign runs afresh and caches under its current key.
func TestStaleStreamResultNotServed(t *testing.T) {
	o, st := newOrch(t, t.TempDir(), 1, 4)
	spec := smallSpec(12)
	stale, err := spec.keyAt(streamVersion - 1)
	if err != nil {
		t.Fatal(err)
	}
	current, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	if stale == current {
		t.Fatal("stream version does not enter the key")
	}
	if err := st.PutResult(stale, []byte(`{"stale":true}`)); err != nil {
		t.Fatal(err)
	}
	j, err := o.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.Cached {
		t.Fatal("result stored under the previous stream version was served")
	}
	if fin := waitDone(t, o, j.ID); fin.State != StateDone {
		t.Fatalf("campaign: %s (%s)", fin.State, fin.Error)
	}
	if _, ok := st.GetResult(current); !ok {
		t.Error("result not cached under the current key")
	}
}

func TestPerformanceJob(t *testing.T) {
	o, _ := newOrch(t, t.TempDir(), 1, 4)
	j, err := o.Submit(Spec{Performance: &PerformanceSpec{
		Benchmark: "mcf", Requests: 2000, Seed: 3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, o, j.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s)", fin.State, fin.Error)
	}
	if len(fin.Result) == 0 {
		t.Fatal("no payload")
	}
}

func TestExperimentJob(t *testing.T) {
	ids := experiments.All()
	if len(ids) == 0 {
		t.Skip("no experiments registered")
	}
	o, _ := newOrch(t, t.TempDir(), 1, 4)
	j, err := o.Submit(Spec{Experiment: &ExperimentSpec{
		ID: ids[0], Trials: 500, Requests: 500, Seed: 2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, o, j.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s)", fin.State, fin.Error)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	o, _ := newOrch(t, t.TempDir(), 1, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := o.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Submit(smallSpec(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close = %v, want ErrClosed", err)
	}
}
