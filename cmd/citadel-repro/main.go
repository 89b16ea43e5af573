// Command citadel-repro regenerates the tables and figures of the Citadel
// paper's evaluation.
//
// Usage:
//
//	citadel-repro -experiment all            # every paper table/figure
//	citadel-repro -experiment ablations      # design-choice sensitivity studies
//	citadel-repro -experiment everything     # both
//	citadel-repro -experiment fig18 -trials 1000000
//	citadel-repro -forensics fail.json       # replay a forensics report
//
// Experiments: table1 table2 fig4 fig5 fig9 fig13 fig14 fig15 fig16 fig17
// table3 fig18 fig19 overhead; ablations: orgs scrub spares tsvpool
// paritysens.
//
// -forensics replays every exemplar of a report written by
// `citadel-sim -forensics` from its recorded seed coordinates and verifies
// the reproduced fault sets, failure times, and reason chains match the
// recording exactly (exit 1 on divergence).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	citadel "repro"
	"repro/internal/experiments"
)

// replayForensics loads a forensics report, replays every exemplar once,
// and prints to w each verdict of the full comparison VerifyReport makes
// (faults, cause, mode, failure time and reasons). Returns an exit code:
// 1 when any exemplar fails to reproduce exactly.
func replayForensics(w io.Writer, path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var report citadel.ForensicsReport
	if err := json.Unmarshal(data, &report); err != nil {
		fmt.Fprintf(os.Stderr, "parsing %s: %v\n", path, err)
		return 2
	}
	fmt.Fprintf(w, "report: run=%s scheme=%s seed=%d trials=%d failures=%d\n",
		report.RunID, report.Scheme, report.Seed, report.Trials, report.Failures)
	if len(report.Breakdown) > 0 {
		fmt.Fprintln(w, "failure breakdown:")
		for mode, n := range report.Breakdown {
			fmt.Fprintf(w, "  %-28s %d\n", mode, n)
		}
	}
	if len(report.Exemplars) == 0 {
		fmt.Fprintln(w, "no exemplars to replay")
		return 0
	}
	replays, err := citadel.ReplayReport(report)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	code := 0
	for i, rp := range replays {
		ex := report.Exemplars[i]
		switch {
		case !rp.Failed:
			fmt.Fprintf(w, "exemplar %d: NOT REPRODUCED (%s)\n", i, ex)
			code = 1
		case rp.Err != nil:
			fmt.Fprintf(w, "exemplar %d: DIVERGED %v\n", i, rp.Err)
			code = 1
		default:
			fmt.Fprintf(w, "exemplar %d: reproduced %s at %.0fh; reasons:\n", i, ex.Mode, ex.FailureHours)
			for _, r := range rp.Got.Reasons {
				fmt.Fprintf(w, "    %-24s %s\n", r.Code, r.Detail)
			}
		}
	}
	if code == 0 {
		fmt.Fprintf(w, "all %d exemplars reproduced exactly\n", len(report.Exemplars))
	}
	return code
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id or 'all'")
		trials     = flag.Int("trials", 0, "Monte Carlo trials (0 = default)")
		requests   = flag.Int("requests", 0, "performance-model requests (0 = default)")
		seed       = flag.Int64("seed", 42, "random seed")
		asJSON     = flag.Bool("json", false, "emit reports as JSON lines")
		progress   = flag.Bool("progress", true, "report finished experiment phases on stderr")
		forensics  = flag.String("forensics", "", "replay and verify a forensics report written by citadel-sim -forensics")
	)
	flag.Parse()

	if *forensics != "" {
		os.Exit(replayForensics(os.Stdout, *forensics))
	}

	opt := experiments.DefaultOptions()
	if *trials > 0 {
		opt.Trials = *trials
	}
	if *requests > 0 {
		opt.Requests = *requests
	}
	opt.Seed = *seed
	// Phase reports on stderr so an interrupted sweep shows how far it got
	// without polluting the report stream on stdout.
	if *progress {
		opt.Progress = func(ev experiments.PhaseEvent) {
			fmt.Fprintf(os.Stderr, "[%s] %s (%.1fs)\n", ev.Experiment, ev.Phase, ev.Elapsed.Seconds())
		}
	}

	ids := []string{*experiment}
	switch *experiment {
	case "all":
		ids = experiments.All()
	case "ablations":
		ids = experiments.Ablations()
	case "everything":
		ids = append(experiments.All(), experiments.Ablations()...)
	}
	// Ctrl-C cancels the sweep: the current experiment stops at its next
	// batch boundary and is reported with whatever rows it finished.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	interrupted := false
	for _, id := range ids {
		start := time.Now()
		rep, err := experiments.RunContext(ctx, id, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *asJSON {
			out, _ := json.Marshal(map[string]any{
				"id": rep.ID, "title": rep.Title, "text": rep.Text,
				"partial": rep.Partial, "seconds": time.Since(start).Seconds(),
			})
			fmt.Println(string(out))
		} else {
			title := rep.Title
			if rep.Partial {
				title += " [partial: interrupted]"
			}
			fmt.Printf("=== %s ===\n%s\n", title, rep.Text)
			fmt.Printf("(%s: %.1fs)\n\n%s\n\n", rep.ID, time.Since(start).Seconds(),
				strings.Repeat("-", 72))
		}
		if ctx.Err() != nil {
			interrupted = true
			break
		}
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "interrupted: remaining experiments skipped")
		os.Exit(130)
	}
}
