package perfsim

import "repro/internal/obs"

// Engine-level metrics, exposed by cmd/citadel-server at GET /metrics.
// They aggregate across every simulation in the process; per-run numbers
// flow through Config.Progress instead.
var (
	mRequests = obs.Default().Counter("citadel_perfsim_requests_total",
		"Memory requests served across all performance simulations.")
	mReads = obs.Default().Counter("citadel_perfsim_reads_total",
		"Demand reads served across all performance simulations.")
	mRowHits = obs.Default().Counter("citadel_perfsim_row_hits_total",
		"Bank-level row-buffer hits.")
	mRowMisses = obs.Default().Counter("citadel_perfsim_row_misses_total",
		"Bank-level row-buffer misses.")
	mRunsActive = obs.Default().Gauge("citadel_perfsim_runs_active",
		"Performance simulations currently executing.")
	mReadLatency = obs.Default().Histogram("citadel_perfsim_read_latency_cycles",
		"End-to-end demand-read latency in memory-bus cycles.",
		[]float64{10, 15, 20, 30, 45, 60, 90, 120, 180, 240, 360, 480, 720, 960})
	// Per-phase latency attribution (see Phases). Phase magnitudes are much
	// smaller than end-to-end latency, so the buckets start at single cycles.
	mPhaseQueue = obs.Default().Histogram("citadel_perfsim_read_queue_wait_cycles",
		"Demand-read cycles spent waiting for busy banks (conflicts plus exposed write traffic).",
		phaseBounds)
	mPhaseActivate = obs.Default().Histogram("citadel_perfsim_read_activate_cycles",
		"Demand-read cycles spent on row activation (tRP+tRCD on row-buffer misses).",
		phaseBounds)
	mPhaseBus = obs.Default().Histogram("citadel_perfsim_read_bus_wait_cycles",
		"Demand-read cycles spent waiting for the channel data bus.",
		phaseBounds)
	mPhaseBurst = obs.Default().Histogram("citadel_perfsim_read_burst_cycles",
		"Demand-read cycles spent on data transfer bursts.",
		phaseBounds)
	mParityOverhead = obs.Default().Histogram("citadel_perfsim_parity_overhead_cycles",
		"Background cycles per writeback spent on Dimension-1 parity maintenance (RBW + parity traffic).",
		[]float64{5, 10, 20, 40, 80, 160, 320, 640})
)

// phaseBounds buckets the per-phase cycle counts.
var phaseBounds = []float64{1, 2, 4, 8, 15, 30, 60, 120, 240, 480}

// runMetrics is one run's staging buffers for the histograms above. serve
// observes into them without touching shared memory; RunContext's flush
// publishes them every cancelCheckInterval requests and when the run
// ends, alongside the counters.
type runMetrics struct {
	readLatency, queue, activate, bus, burst, parityOverhead *obs.LocalHistogram
}

func newRunMetrics() runMetrics {
	return runMetrics{
		readLatency:    mReadLatency.Local(),
		queue:          mPhaseQueue.Local(),
		activate:       mPhaseActivate.Local(),
		bus:            mPhaseBus.Local(),
		burst:          mPhaseBurst.Local(),
		parityOverhead: mParityOverhead.Local(),
	}
}

// flush publishes and clears every staged observation.
func (m *runMetrics) flush() {
	m.readLatency.Flush()
	m.queue.Flush()
	m.activate.Flush()
	m.bus.Flush()
	m.burst.Flush()
	m.parityOverhead.Flush()
}
