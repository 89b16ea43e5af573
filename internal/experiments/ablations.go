package experiments

import (
	"fmt"
	"math"
	"strings"

	citadel "repro"
	"repro/internal/dramsim"
	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/parity"
	"repro/internal/sparing"
	"repro/internal/stack"
	"repro/internal/workload"
)

// Ablations lists the ablation experiment IDs (design-choice sensitivity
// studies beyond the paper's figures; DESIGN.md motivates each).
func Ablations() []string {
	return []string{"orgs", "scrub", "spares", "tsvpool", "paritysens", "priorwork", "cmdlevel", "bookkeeping", "density"}
}

// runAblation dispatches one ablation by ID.
func runAblation(id string, opt Options) (Report, bool) {
	switch id {
	case "orgs":
		return Orgs(opt), true
	case "scrub":
		return Scrub(opt), true
	case "spares":
		return Spares(opt), true
	case "tsvpool":
		return TSVPool(opt), true
	case "paritysens":
		return ParitySensitivity(opt), true
	case "priorwork":
		return PriorWork(opt), true
	case "cmdlevel":
		return CmdLevel(opt), true
	case "bookkeeping":
		return Bookkeeping(opt), true
	case "density":
		return Density(opt), true
	default:
		return Report{}, false
	}
}

// citadelPolicy builds the full Citadel policy with custom budgets.
func citadelPolicy(cfg stack.Config, rows, banks, pool int) faultsim.Policy {
	return faultsim.Policy{
		Name:           fmt.Sprintf("Citadel(r%d,b%d,p%d)", rows, banks, pool),
		Predicate:      ecc.NewParity(cfg, parity.ThreeDP),
		UseTSVSwap:     true,
		TSVStandbyPool: pool,
		NewSparer: func(c stack.Config) faultsim.Sparer {
			return sparing.NewWithBudget(c, rows, banks)
		},
	}
}

// engineOpts builds engine options for a geometry.
func engineOpts(opt Options, cfg stack.Config, tsvFIT float64) faultsim.Options {
	return faultsim.Options{
		Config: cfg,
		Rates:  fault.Table1().WithTSV(tsvFIT),
		Trials: opt.Trials,
		Seed:   opt.Seed,
	}
}

// Orgs re-runs the headline comparison on the three stacked-memory
// organizations the paper discusses (§II-C): the reliability improvement of
// Citadel over the striped symbol code should hold for HBM-, HMC- and
// Tezzaron-like designs alike.
func Orgs(opt Options) Report {
	ctx := opt.context()
	rep := Report{ID: "orgs", Title: "Ablation: Citadel across stack organizations (TSV 1430 FIT)"}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-22s %-22s\n", "Organization", "Symbol8/Across-Chan", "Citadel")
	for _, org := range stack.Organizations() {
		if ctx.Err() != nil {
			rep.Partial = true
			break
		}
		eo := engineOpts(opt, org.Config, 1430)
		symbol := faultsim.RunContext(ctx, eo, faultsim.Policy{
			Predicate:  ecc.NewSymbol8(org.Config, stack.AcrossChannels),
			UseTSVSwap: true,
		})
		cit := faultsim.RunContext(ctx, eo, citadelPolicy(org.Config, sparing.MaxSpareRowsPerBank, sparing.SpareBanks, 0))
		rep.Partial = rep.Partial || symbol.Partial || cit.Partial
		fmt.Fprintf(&b, "%-14s %-22s %-22s\n", org.Name,
			probString(symbol), probString(cit))
	}
	rep.Text = b.String()
	return rep
}

// Scrub sweeps the scrubbing interval: longer intervals leave transient
// faults live longer, widening the window for uncorrectable coincidences.
func Scrub(opt Options) Report {
	ctx := opt.context()
	rep := Report{ID: "scrub", Title: "Ablation: scrub-interval sensitivity"}
	var b strings.Builder
	cfg := stack.DefaultConfig()
	fmt.Fprintf(&b, "%-16s %-20s %-20s\n", "Scrub interval", "3DP", "3DP+DDS")
	for _, hours := range []float64{1, 12, 24, 168} {
		if ctx.Err() != nil {
			rep.Partial = true
			break
		}
		eo := engineOpts(opt, cfg, 0)
		eo.ScrubIntervalHours = hours
		p3 := faultsim.RunContext(ctx, eo, faultsim.Policy{
			Predicate: ecc.NewParity(cfg, parity.ThreeDP), UseTSVSwap: true,
		})
		dds := faultsim.RunContext(ctx, eo, citadelPolicy(cfg, sparing.MaxSpareRowsPerBank, sparing.SpareBanks, 0))
		rep.Partial = rep.Partial || p3.Partial || dds.Partial
		fmt.Fprintf(&b, "%-16s %-20s %-20s\n", fmt.Sprintf("%.0f h", hours),
			probString(p3), probString(dds))
	}
	fmt.Fprintf(&b, "\n(DDS also gates how fast permanent faults leave the live set:\n")
	fmt.Fprintf(&b, " sparing happens at scrub boundaries.)\n")
	rep.Text = b.String()
	return rep
}

// Spares sweeps the DDS budgets: the paper picked 4 spare rows per bank
// (Figure 17's small mode) and 2 spare banks (Table III).
func Spares(opt Options) Report {
	ctx := opt.context()
	rep := Report{ID: "spares", Title: "Ablation: DDS sparing budgets"}
	var b strings.Builder
	cfg := stack.DefaultConfig()
	fmt.Fprintf(&b, "%-24s %-20s\n", "DDS budget (rows,banks)", "P(fail, 7y)")
	for _, budget := range [][2]int{{0, 0}, {4, 0}, {0, 2}, {2, 2}, {4, 2}, {8, 4}} {
		if ctx.Err() != nil {
			rep.Partial = true
			break
		}
		eo := engineOpts(opt, cfg, 0)
		pol := citadelPolicy(cfg, budget[0], budget[1], 0)
		if budget[0] == 0 && budget[1] == 0 {
			pol.NewSparer = nil
			pol.Name = "no sparing (plain 3DP)"
		}
		r := faultsim.RunContext(ctx, eo, pol)
		rep.Partial = rep.Partial || r.Partial
		fmt.Fprintf(&b, "rows=%-3d banks=%-10d %-20s\n", budget[0], budget[1],
			probString(r))
	}
	rep.Text = b.String()
	return rep
}

// TSVPool sweeps the stand-by TSV pool size at the pessimistic TSV rate.
func TSVPool(opt Options) Report {
	ctx := opt.context()
	rep := Report{ID: "tsvpool", Title: "Ablation: stand-by TSV pool size (TSV 1430 FIT)"}
	var b strings.Builder
	cfg := stack.DefaultConfig()
	fmt.Fprintf(&b, "%-20s %-20s\n", "Stand-by TSVs/chan", "P(fail, 7y)")
	// Pool 0 disables TSV-Swap entirely for reference.
	eo := engineOpts(opt, cfg, 1430)
	noSwap := faultsim.RunContext(ctx, eo, faultsim.Policy{
		Name:      "no TSV-Swap",
		Predicate: ecc.NewParity(cfg, parity.ThreeDP),
		NewSparer: func(c stack.Config) faultsim.Sparer { return sparing.New(c) },
	})
	rep.Partial = noSwap.Partial
	fmt.Fprintf(&b, "%-20s %-20s\n", "0 (no swap)", probString(noSwap))
	for _, pool := range []int{1, 2, 4, 8} {
		if ctx.Err() != nil {
			rep.Partial = true
			break
		}
		r := faultsim.RunContext(ctx, eo, citadelPolicy(cfg, sparing.MaxSpareRowsPerBank, sparing.SpareBanks, pool))
		rep.Partial = rep.Partial || r.Partial
		fmt.Fprintf(&b, "%-20d %-20s\n", pool, probString(r))
	}
	rep.Text = b.String()
	return rep
}

// ParitySensitivity sweeps the Dimension-1 parity cache hit rate and
// reports the GMEAN 3DP slowdown — the knob Figure 13 justifies.
func ParitySensitivity(opt Options) Report {
	ctx := opt.context()
	rep := Report{ID: "paritysens", Title: "Ablation: 3DP slowdown vs parity-cache hit rate"}
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-22s\n", "Parity LLC hit rate", "GMEAN exec (vs baseline)")
	for _, hit := range []float64{0.001, 0.5, 0.85, 0.999} {
		var g float64
		n := 0
		for _, prof := range citadel.Benchmarks() {
			if ctx.Err() != nil {
				rep.Partial = true
				break
			}
			base := citadel.SimulatePerformanceContext(ctx, prof, citadel.PerfOptions{Requests: opt.Requests, Seed: opt.Seed})
			run := citadel.SimulatePerformanceContext(ctx, prof, citadel.PerfOptions{
				Protection:         citadel.Protection3DP,
				ParityCacheHitRate: hit,
				Requests:           opt.Requests,
				Seed:               opt.Seed,
			})
			if base.Partial || run.Partial {
				// Only complete runs enter the mean (see geomeanPerf).
				rep.Partial = true
				break
			}
			g += math.Log(float64(run.Cycles) / float64(base.Cycles))
			n++
		}
		if n == 0 {
			break
		}
		fmt.Fprintf(&b, "%-20.2f %-22.4f\n", hit, math.Exp(g/float64(n)))
	}
	rep.Text = b.String()
	return rep
}

// PriorWork compares 3DP against the prior parity schemes of §VIII-E: the
// 2D-ECC tile code (25%-class storage for small-granularity protection;
// the paper claims 3DP is ~130x more resilient at 1.6% storage).
func PriorWork(opt Options) Report {
	ctx := opt.context()
	cfg := stack.DefaultConfig()
	eo := engineOpts(opt, cfg, 0)
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-16s %-18s\n", "Scheme", "P(fail, 7y)", "DRAM storage")
	twod := faultsim.RunContext(ctx, eo, faultsim.Policy{Predicate: ecc.NewTwoDECC(cfg), UseTSVSwap: true})
	fmt.Fprintf(&b, "%-12s %-16s %-18s\n", "2D-ECC", probString(twod), "~25% (prior work)")
	p3 := faultsim.RunContext(ctx, eo, faultsim.Policy{Predicate: ecc.NewParity(cfg, parity.ThreeDP), UseTSVSwap: true})
	fmt.Fprintf(&b, "%-12s %-16s %-18s\n", "3DP", probString(p3), "1.6% (parity bank)")
	if p3.Failures > 0 {
		fmt.Fprintf(&b, "\n3DP vs 2D-ECC: %.0fx more resilient\n", twod.Probability()/p3.Probability())
	}
	return Report{ID: "priorwork", Title: "Ablation: 3DP vs prior 2D-ECC (paper section VIII-E)", Text: b.String(), Partial: twod.Partial || p3.Partial}
}

// CmdLevel cross-checks the coarse queueing model (internal/perfsim)
// against the command-level FR-FCFS channel model (internal/dramsim): for
// each benchmark it replays channel 0's request stream through the
// detailed model and compares row-hit rates and average read latency. The
// two models should agree on ordering and row locality even though the
// coarse model abstracts command timing.
func CmdLevel(opt Options) Report {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s | %-22s | %-22s\n", "", "coarse (perfsim)", "command-level (dramsim)")
	fmt.Fprintf(&b, "%-12s | %10s %11s | %10s %11s\n", "benchmark",
		"rowhit", "avg lat", "rowhit", "avg lat")
	cfg := stack.DefaultConfig()
	layout := cfg.Layout(stack.SameBank)
	ctx := opt.context()
	partial := false
	for _, name := range []string{"dealII", "mcf", "lbm", "libquantum", "GemsFDTD"} {
		if ctx.Err() != nil {
			partial = true
			break
		}
		prof, _ := citadel.BenchmarkByName(name)
		coarse := citadel.SimulatePerformanceContext(ctx, prof, citadel.PerfOptions{Requests: opt.Requests, Seed: opt.Seed})
		if coarse.Partial {
			partial = true
			break
		}

		// Replay channel 0's stream through the command-level model.
		gen := workload.NewGenerator(prof, 8, opt.Seed)
		ch := dramsim.NewChannel(cfg.BanksPerDie, dramsim.DefaultTiming())
		var reqs []*dramsim.Request
		perK := prof.MPKI + prof.WBPKI
		cyclesPerReq := 1000 / perK * prof.CPI0 / 4 // core-to-mem clock ratio 4
		for i := 0; i < opt.Requests*4 && len(reqs) < opt.Requests; i++ {
			r := gen.Next()
			co := layout.Interleave(r.LineAddr)
			if co.Stack != 0 || co.Die != 0 {
				continue
			}
			reqs = append(reqs, &dramsim.Request{
				Bank:   co.Bank,
				Row:    co.Row,
				Write:  r.Write,
				Arrive: int64(float64(i) * cyclesPerReq / 8),
			})
		}
		st := ch.SimulateClosedLoop(reqs, 16)
		rowhit := float64(st.RowHits) / float64(st.RowHits+st.RowMisses)
		fmt.Fprintf(&b, "%-12s | %9.1f%% %11.1f | %9.1f%% %11.1f\n", name,
			100*coarse.RowHitRate, coarse.AvgReadLatencyCycles,
			100*rowhit, st.AvgLatency)
	}
	fmt.Fprintf(&b, "\n(absolute latencies differ by design; row locality and per-benchmark\n ordering must track)\n")
	return Report{ID: "cmdlevel", Title: "Ablation: coarse queueing model vs command-level DRAM model", Text: b.String(), Partial: partial}
}

// Bookkeeping contrasts the two ways of accounting ChipKill failures: the
// coding-exact RS(72,64) capability (two faults must share a codeword) vs
// FaultSim-style device-granularity marking (two permanently faulty units
// in a codeword domain = failure). The paper's Figure-14 claim that 3DP is
// ~7x more resilient than the symbol code emerges under the latter.
func Bookkeeping(opt Options) Report {
	ctx := opt.context()
	cfg := stack.DefaultConfig()
	eo := engineOpts(opt, cfg, 0)
	exact := faultsim.RunContext(ctx, eo, faultsim.Policy{
		Predicate: ecc.NewSymbol8(cfg, stack.AcrossChannels), UseTSVSwap: true,
	})
	coarse := faultsim.RunContext(ctx, eo, faultsim.Policy{
		Predicate: ecc.NewSymbol8DeviceGranular(cfg, stack.AcrossChannels), UseTSVSwap: true,
	})
	p3 := faultsim.RunContext(ctx, eo, faultsim.Policy{
		Predicate: ecc.NewParity(cfg, parity.ThreeDP), UseTSVSwap: true,
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %-14s\n", "Scheme / bookkeeping", "P(fail, 7y)")
	fmt.Fprintf(&b, "%-44s %-14s\n", "Symbol8 across channels, codeword-exact", probString(exact))
	fmt.Fprintf(&b, "%-44s %-14s\n", "Symbol8 across channels, device-granular", probString(coarse))
	fmt.Fprintf(&b, "%-44s %-14s\n", "3DP", probString(p3))
	if p3.Failures > 0 && coarse.Failures > 0 {
		fmt.Fprintf(&b, "\nunder device-granular bookkeeping, 3DP is %.1fx more resilient\n",
			coarse.Probability()/p3.Probability())
		fmt.Fprintf(&b, "(the paper's Figure-14 claim is ~7x; exact bookkeeping gives %.1fx)\n",
			exact.Probability()/p3.Probability())
	}
	return Report{ID: "bookkeeping", Title: "Ablation: ChipKill failure bookkeeping granularity (Figure 14's 7x)", Text: b.String(), Partial: exact.Partial || coarse.Partial || p3.Partial}
}

// Density extrapolates Table I along further die-density doublings
// (8 -> 16 -> 32 -> 64 Gb) using the paper's §III-A scaling rules, asking
// whether Citadel's advantage over the striped symbol code survives the
// densification that motivates stacked memory in the first place.
func Density(opt Options) Report {
	ctx := opt.context()
	rep := Report{ID: "density", Title: "Ablation: reliability vs die density (8-64 Gb)"}
	cfg := stack.DefaultConfig()
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-22s %-22s\n", "Die size", "Symbol8/Across-Chan", "Citadel")
	for d := 0; d <= 3; d++ {
		if ctx.Err() != nil {
			rep.Partial = true
			break
		}
		rates := fault.ScalePerDoubling(fault.Table1(), d).WithTSV(1430)
		eo := faultsim.Options{Config: cfg, Rates: rates, Trials: opt.Trials, Seed: opt.Seed}
		symbol := faultsim.RunContext(ctx, eo, faultsim.Policy{
			Predicate: ecc.NewSymbol8(cfg, stack.AcrossChannels), UseTSVSwap: true,
		})
		cit := faultsim.RunContext(ctx, eo, citadelPolicy(cfg, sparing.MaxSpareRowsPerBank, sparing.SpareBanks, 0))
		rep.Partial = rep.Partial || symbol.Partial || cit.Partial
		fmt.Fprintf(&b, "%-10s %-22s %-22s\n", fmt.Sprintf("%d Gb", 8<<uint(d)),
			probString(symbol), probString(cit))
	}
	fmt.Fprintf(&b, "\n(density scaling per §III-A: capacity-borne rates x2 per doubling,\n")
	fmt.Fprintf(&b, " rows x4 and columns x1.9 per three doublings)\n")
	rep.Text = b.String()
	return rep
}
