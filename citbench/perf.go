package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	citadel "repro"
	"repro/internal/cache"
	"repro/internal/obs/trace"
	"repro/internal/workload"
)

// perfProfiles mixes memory-bound (mcf, libquantum, GemsFDTD) and
// compute-bound (dealII) workload profiles.
var perfProfiles = []string{"mcf", "libquantum", "GemsFDTD", "dealII"}

// perfConfig is one memory-layout/protection pair of the Fig. 5/15
// study.
type perfConfig struct {
	id         string
	striping   citadel.Striping
	protection citadel.Protection
}

var perfConfigs = []perfConfig{
	{"same-bank-none", citadel.SameBank, citadel.NoProtection},
	{"same-bank-3dp", citadel.SameBank, citadel.Protection3DP},
	{"across-channels-none", citadel.AcrossChannels, citadel.NoProtection},
}

// perfRequests is the request count of every timing simulation at scale
// 1. It keeps the timing model the larger share of a pass: the
// parity-caching runs walk an 8 MiB cache model, and on a shared host
// their speed swings with neighbours' use of the memory system (a pass
// with 20k requests spread 0.11 over ten seeds, with 60k 0.06 over six).
const perfRequests = 60000

// parityRequests is the request count of every parity-caching
// measurement. Parity probes start only once the 8 MiB LLC fills and
// evicts dirty lines (131072 lines), so it never shrinks below
// parityMinRequests.
const (
	parityRequests    = 200000
	parityMinRequests = 150000
)

// perfCell is one profile × config simulation's output.
type perfCell struct {
	res  citadel.PerfResult
	host time.Duration
}

// perfStudy is one pass: the parity-cache hit rate of every profile,
// then every profile × config through the timing/power model, with the
// measured hit rate feeding the 3DP configuration.
type perfStudy struct {
	parity []citadel.ParityCacheResult // by profile
	cells  [][]perfCell                // [profile][config]
}

// perfCallers is the number of closed-loop callers splitting a pass's
// profiles between them, one per CPU of the 2-core reference host. A
// single caller leaves one CPU idle, and on a shared host the idle
// sibling's load then swings the other's speed by about a fifth from run
// to run.
const perfCallers = 2

func (b *bench) perfPass(profiles []citadel.Benchmark, seed int64, req int, traced bool) (perfStudy, error) {
	st := perfStudy{parity: make([]citadel.ParityCacheResult, len(profiles)), cells: make([][]perfCell, len(profiles))}
	errs := make([]error, len(profiles))
	var wg sync.WaitGroup
	for c := 0; c < perfCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(profiles); i += perfCallers {
				errs[i] = b.perfProfile(profiles[i], i, seed, req, traced, &st)
			}
		}()
	}
	wg.Wait()
	for i := range profiles {
		b.attempted += 1 + len(perfConfigs)
		if errs[i] != nil {
			b.failed++
			return st, errs[i]
		}
	}
	return st, nil
}

// perfProfile measures one profile's parity caching, then runs it
// through every config, the 3DP config using the measured hit rate. It
// writes only row i of st.
func (b *bench) perfProfile(p citadel.Benchmark, i int, seed int64, req int, traced bool, st *perfStudy) error {
	ctx := context.Background()
	var rec, engine *trace.Recorder
	if traced {
		rec, engine = b.rec, b.engine
	}
	t0 := rec.Now()
	pc := citadel.MeasureParityCachingContext(ctx, p, b.size(parityRequests, parityMinRequests), seed)
	if pc.Partial || pc.ParityProbes == 0 {
		return fmt.Errorf("parity caching %s: partial=%v probes=%d", p.Name, pc.Partial, pc.ParityProbes)
	}
	st.parity[i] = pc
	if rec != nil {
		rec.Complete("parity-cache "+p.Name, "cache", int64(1+i), t0, rec.Now()-t0, trace.Arg{Key: "hitRate", Val: pc.HitRate()})
	}
	st.cells[i] = make([]perfCell, len(perfConfigs))
	for j, c := range perfConfigs {
		opts := citadel.PerfOptions{Striping: c.striping, Protection: c.protection, Requests: req, Seed: seed, Tracer: engine}
		if c.protection == citadel.Protection3DP {
			opts.ParityCacheHitRate = pc.HitRate()
		}
		t := time.Now()
		t0 := rec.Now()
		res := citadel.SimulatePerformanceContext(ctx, p, opts)
		st.cells[i][j] = perfCell{res: res, host: time.Since(t)}
		if res.Partial || res.RequestsDone != req || res.Cycles == 0 {
			return fmt.Errorf("performance %s/%s: partial=%v requests=%d", p.Name, c.id, res.Partial, res.RequestsDone)
		}
		if rec != nil {
			rec.Complete(p.Name+" "+c.id, "perfsim", int64(1+i), t0, rec.Now()-t0, trace.Arg{Key: "cycles", Val: float64(res.Cycles)})
		}
	}
	return nil
}

// simulated strips the host-time fields so passes can be compared.
func (st perfStudy) simulated() [][]citadel.PerfResult {
	out := make([][]citadel.PerfResult, len(st.cells))
	for i, row := range st.cells {
		for _, c := range row {
			out[i] = append(out[i], c.res)
		}
	}
	return out
}

func runPerf(b *bench) error {
	var profiles []citadel.Benchmark
	seed := deriveSeed(b.seed, 7)
	// Set-up: load the profiles and run one warm-up pass at a tenth of
	// the request count.
	err := b.timeSetup(func(bool) error {
		profiles = profiles[:0]
		for _, name := range perfProfiles {
			p, ok := citadel.BenchmarkByName(name)
			if !ok {
				return fmt.Errorf("unknown workload profile %q", name)
			}
			profiles = append(profiles, p)
		}
		_, err := b.perfPass(profiles, seed, b.size(perfRequests/10, 200), false)
		return err
	})
	if err != nil {
		return err
	}
	b.attempted, b.failed = 0, 0

	var first perfStudy
	var passes []float64
	repeats := true
	window := func(seconds float64, traced bool) ([]float64, error) {
		var ms []float64
		end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		for len(ms) == 0 || time.Now().Before(end) {
			t := time.Now()
			t0 := b.rec.Now()
			st, err := b.perfPass(profiles, seed, b.size(perfRequests, 200), traced)
			if err != nil {
				return nil, err
			}
			ms = append(ms, float64(time.Since(t).Microseconds())/1000)
			if traced {
				b.span("study-pass", "campaign", 0, t0)
			}
			if first.cells == nil {
				first = st
			} else if !sameSimulated(first, st) {
				repeats = false
			}
		}
		return ms, nil
	}
	if !b.traced {
		start := time.Now()
		if passes, err = window(b.seconds, false); err != nil {
			return err
		}
		b.recordOps(passes, time.Since(start))
		b.info("study_s = %.4f s (median pass over %d passes)", median(passes)/1000, len(passes))
	} else {
		plain, err := window(b.seconds/2, false)
		if err != nil {
			return err
		}
		traced, err := window(b.seconds/2, true)
		if err != nil {
			return err
		}
		passes = append(plain, traced...)
		b.set("trace_overhead_ratio", median(traced)/median(plain), "ratio")
		b.perfLedger(profiles, first, seed)
	}
	b.check("perf.repeats", repeats && len(passes) > 0,
		fmt.Sprintf("simulated statistics identical across %d passes", len(passes)))
	b.checkFig5(first)
	return nil
}

func sameSimulated(a, b perfStudy) bool {
	x, y := a.simulated(), b.simulated()
	for i := range x {
		for j := range x[i] {
			if x[i][j] != y[i][j] {
				return false
			}
		}
	}
	for i := range a.parity {
		if a.parity[i] != b.parity[i] {
			return false
		}
	}
	return true
}

// fig5Tolerance bounds 3DP's execution-time cost relative to the
// unprotected same-bank layout (the paper reports about 1%).
const fig5Tolerance = 0.05

// checkFig5 asserts the Fig. 5 shape: across-channels striping is slower
// than same-bank (geometric mean over the profiles), and 3DP with parity
// caching stays within a few percent of the unprotected baseline.
func (b *bench) checkFig5(st perfStudy) {
	var logAcross, log3dp float64
	for _, row := range st.cells {
		base := float64(row[0].res.Cycles)
		log3dp += math.Log(float64(row[1].res.Cycles) / base)
		logAcross += math.Log(float64(row[2].res.Cycles) / base)
	}
	n := float64(len(st.cells))
	across, dp := math.Exp(logAcross/n), math.Exp(log3dp/n)
	b.check("perf.fig5-striping", across > 1,
		fmt.Sprintf("across-channels/same-bank execution time gmean %.4f (must exceed 1)", across))
	b.check("perf.fig5-3dp", math.Abs(dp-1) <= fig5Tolerance,
		fmt.Sprintf("3DP/base execution time gmean %.4f (must be within %.0f%% of 1)", dp, 100*fig5Tolerance))
}

// perfLedger prints the timing-model ledger: host speed and simulated
// statistics per config (summed or averaged over profiles), the request
// generator's cost, and the LLC model's per-access cost.
func (b *bench) perfLedger(profiles []citadel.Benchmark, st perfStudy, seed int64) {
	for j, c := range perfConfigs {
		var host time.Duration
		var cycles, reqs uint64
		var hit, lat, watts float64
		var ph citadel.ReadPhases
		for i := range profiles {
			r := st.cells[i][j]
			host += r.host
			cycles += r.res.Cycles
			reqs += uint64(r.res.RequestsDone)
			hit += r.res.RowHitRate
			lat += r.res.AvgReadLatencyCycles
			watts += r.res.ActivePowerWatts
			ph.Queue += r.res.ReadPhases.Queue
			ph.Activate += r.res.ReadPhases.Activate
			ph.Bus += r.res.ReadPhases.Bus
			ph.Burst += r.res.ReadPhases.Burst
		}
		n := float64(len(profiles))
		p := "perfsim." + c.id
		b.set(p+".requests_per_s", float64(reqs)/host.Seconds(), "1/s")
		b.set(p+".sim_cycles", float64(cycles), "cycles")
		b.set(p+".row_hit_rate", hit/n, "ratio")
		b.set(p+".avg_read_latency_cycles", lat/n, "cycles")
		b.set(p+".queue_cycles", ph.Queue/n, "cycles")
		b.set(p+".activate_cycles", ph.Activate/n, "cycles")
		b.set(p+".bus_cycles", ph.Bus/n, "cycles")
		b.set(p+".burst_cycles", ph.Burst/n, "cycles")
		b.set("power."+c.id+".active_w", watts/n, "W")
		b.info("%s base: %d requests over %d profiles in %.3f s host time", p, reqs, len(profiles), host.Seconds())
	}

	// The request generator and the LLC, timed over the same streams
	// the study draws.
	req := b.size(perfRequests, 200)
	var genNs, accessNs float64
	var accesses, probes, hits uint64
	for i, p := range profiles {
		probes += st.parity[i].ParityProbes
		hits += st.parity[i].ParityHits
		g := workload.NewGenerator(p, 8, seed)
		t := time.Now()
		for k := 0; k < req; k++ {
			g.Next()
		}
		genNs += float64(time.Since(t).Nanoseconds())

		cfg := citadel.DefaultConfig()
		llc, err := cache.New(8<<20, 8, cfg.LineBytes)
		if err != nil {
			b.fail("cache.geometry", err.Error())
			return
		}
		stream := workload.NewGenerator(p, 8, seed).Stream(req)
		t = time.Now()
		for _, r := range stream {
			llc.Access(r.LineAddr*uint64(cfg.LineBytes), r.Write)
		}
		accessNs += float64(time.Since(t).Nanoseconds())
		accesses += uint64(len(stream))
	}
	total := float64(req * len(profiles))
	b.set("workload.generate_ns_per_request", genNs/total, "ns")
	b.set("cache.parity_access_ns", accessNs/float64(accesses), "ns")
	b.set("cache.parity_hit_rate", float64(hits)/float64(probes), "ratio")
	b.info("workload/cache base: %d requests over %d profiles, %d LLC accesses, %d parity probes", int(total), len(profiles), accesses, probes)
}
