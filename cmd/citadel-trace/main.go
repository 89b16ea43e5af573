// Command citadel-trace exports the synthetic request stream of a
// benchmark as a CSV trace, or replays a trace file through the
// performance model and the command-level DRAM model.
//
// Usage:
//
//	citadel-trace -benchmark mcf -requests 100000 -out mcf.trace
//	citadel-trace -replay mcf.trace -benchmark mcf
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dramsim"
	"repro/internal/perfsim"
	"repro/internal/stack"
	"repro/internal/workload"
)

func main() {
	var (
		benchmark = flag.String("benchmark", "mcf", "benchmark profile for generation/replay")
		requests  = flag.Int("requests", 100000, "requests to generate or replay")
		out       = flag.String("out", "", "write a synthetic trace to this file")
		replay    = flag.String("replay", "", "replay a trace file through the models")
		seed      = flag.Int64("seed", 1, "random seed for generation")
	)
	flag.Parse()

	prof, ok := workload.ByName(*benchmark)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", *benchmark)
		os.Exit(2)
	}

	switch {
	case *out != "":
		reqs := workload.NewGenerator(prof, 8, *seed).Stream(*requests)
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := workload.WriteTrace(f, reqs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d requests to %s\n", len(reqs), *out)

	case *replay != "":
		f, err := os.Open(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		reqs, err := workload.ReadTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		src, err := workload.NewTraceSource(reqs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg := perfsim.DefaultConfig()
		cfg.Requests = *requests
		cfg.Trace = src
		st := perfsim.Run(prof, cfg)
		fmt.Printf("perfsim:  cycles=%d rowhit=%.1f%% avgReadLat=%.1f\n",
			st.Cycles, 100*st.RowHitRate(), st.AvgReadLatency())

		// Channel-0 slice through the command-level model.
		scfg := stack.DefaultConfig()
		layout := scfg.Layout(stack.SameBank)
		ch := dramsim.NewChannel(scfg.BanksPerDie, dramsim.DefaultTiming())
		var dreqs []*dramsim.Request
		for i, r := range reqs {
			co := layout.Interleave(r.LineAddr)
			if co.Stack != 0 || co.Die != 0 {
				continue
			}
			dreqs = append(dreqs, &dramsim.Request{
				Bank: co.Bank, Row: co.Row, Write: r.Write, Arrive: int64(i),
			})
		}
		dst := ch.SimulateClosedLoop(dreqs, 16)
		fmt.Printf("dramsim:  %s (channel 0, %d requests)\n", dst, len(dreqs))

	default:
		fmt.Fprintln(os.Stderr, "need -out (generate) or -replay (consume); see -h")
		os.Exit(2)
	}
}
