package perfsim

import (
	"context"
	"testing"
	"time"

	"repro/internal/stack"
	"repro/internal/workload"
)

// histCounts reads the observation count of every perfsim histogram.
type histCounts struct {
	latency, queue, activate, bus, burst, parity int64
}

func readHistCounts() histCounts {
	return histCounts{
		latency:  mReadLatency.Count(),
		queue:    mPhaseQueue.Count(),
		activate: mPhaseActivate.Count(),
		bus:      mPhaseBus.Count(),
		burst:    mPhaseBurst.Count(),
		parity:   mParityOverhead.Count(),
	}
}

// checkHistDeltas asserts that the histograms gained exactly one
// observation per demand read (latency and each phase) and one per
// parity update since before.
func checkHistDeltas(t *testing.T, before histCounts, reads, parityUpdates uint64) {
	t.Helper()
	after := readHistCounts()
	for name, d := range map[string]int64{
		"read latency": after.latency - before.latency,
		"queue":        after.queue - before.queue,
		"activate":     after.activate - before.activate,
		"bus":          after.bus - before.bus,
		"burst":        after.burst - before.burst,
	} {
		if d != int64(reads) {
			t.Errorf("%s histogram gained %d observations, want %d reads", name, d, reads)
		}
	}
	if d := after.parity - before.parity; d != int64(parityUpdates) {
		t.Errorf("parity overhead histogram gained %d observations, want %d parity updates", d, parityUpdates)
	}
}

// TestHistogramsPublishEveryObservation pins the staging contract: no
// staged observation is lost, whether the run completes or is cancelled,
// and every mid-run snapshot sees the histograms caught up with the
// counters. The histograms are process-global, so this test must not run
// in parallel with another simulation.
func TestHistogramsPublishEveryObservation(t *testing.T) {
	p := prof(t, "stream")
	t.Run("complete", func(t *testing.T) {
		before := readHistCounts()
		st := Run(p, runCfg(stack.SameBank, Citadel3DP(0.5), 20000))
		if st.Reads == 0 || st.ParityUpdates == 0 {
			t.Fatalf("reads=%d parity updates=%d, want both served", st.Reads, st.ParityUpdates)
		}
		checkHistDeltas(t, before, st.Reads, st.ParityUpdates)
	})
	t.Run("cancelled", func(t *testing.T) {
		before := readHistCounts()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := runCfg(stack.AcrossBanks, Citadel3DPNoCache(), 1_000_000)
		cfg.ProgressInterval = time.Nanosecond
		snapshots := 0
		cfg.Progress = func(pr Progress) {
			if pr.Done {
				return
			}
			snapshots++
			// Snapshots follow a flush, so the read histograms are
			// exactly caught up with the reads served so far.
			if d := mReadLatency.Count() - before.latency; d != int64(pr.Reads) {
				t.Errorf("at %d requests: latency histogram gained %d, want %d reads", pr.RequestsDone, d, pr.Reads)
			}
			if pr.RequestsDone >= 5*cancelCheckInterval {
				cancel()
			}
		}
		st := RunContext(ctx, p, cfg)
		if !st.Partial || st.RequestsDone != 5*cancelCheckInterval {
			t.Fatalf("partial=%v requests=%d, want a run cancelled at %d", st.Partial, st.RequestsDone, 5*cancelCheckInterval)
		}
		if snapshots < 5 {
			t.Errorf("saw %d mid-run snapshots, want one per interval", snapshots)
		}
		checkHistDeltas(t, before, st.Reads, st.ParityUpdates)
	})
}

// BenchmarkParityCacheHitRate measures the Figure-13 parity-caching
// experiment: every request goes through the 8 MiB LLC model, and dirty
// evictions probe it again for their parity line.
func BenchmarkParityCacheHitRate(b *testing.B) {
	p, _ := workload.ByName("mcf")
	const requests = 200000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ParityCacheHitRate(p, 8<<20, 8, requests, 1)
	}
	b.ReportMetric(float64(b.N)*requests/b.Elapsed().Seconds(), "requests/s")
}

// BenchmarkRunParallel runs whole timing simulations on every P at once,
// the way concurrent API requests do, so contention on shared state (the
// process-global metrics) shows up as lost throughput.
func BenchmarkRunParallel(b *testing.B) {
	p, _ := workload.ByName("mcf")
	cfg := runCfg(stack.SameBank, Citadel3DP(0.85), 10000)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			Run(p, cfg)
		}
	})
	b.ReportMetric(float64(b.N)*float64(cfg.Requests)/b.Elapsed().Seconds(), "requests/s")
}
