// Performance & power: why Citadel refuses to stripe cache lines. This
// example runs the queueing performance model for a few memory-intensive
// benchmarks under each data layout and under 3DP's overheads, printing the
// normalized execution time and active power the paper's Figures 5, 15 and
// 16 report.
package main

import (
	"context"
	"fmt"
	"log"

	citadel "repro"
)

func main() {
	names := []string{"dealII", "gcc", "mcf", "lbm", "libquantum", "GemsFDTD", "stream", "mummer"}
	const requests = 60000
	ctx := context.Background()

	fmt.Printf("%-12s | %-21s | %-21s | %-21s\n", "",
		"Across-Banks", "Across-Channels", "3DP (Same-Bank)")
	fmt.Printf("%-12s | %9s %11s | %9s %11s | %9s %11s\n", "benchmark",
		"exec", "power", "exec", "power", "exec", "power")
	for _, name := range names {
		b, ok := citadel.BenchmarkByName(name)
		if !ok {
			log.Fatalf("unknown benchmark %s", name)
		}
		base := citadel.SimulatePerformanceContext(ctx, b, citadel.PerfOptions{Requests: requests})
		norm := func(striping citadel.Striping, prot citadel.Protection) (float64, float64) {
			r := citadel.SimulatePerformanceContext(ctx, b, citadel.PerfOptions{
				Striping: striping, Protection: prot, Requests: requests,
			})
			return float64(r.Cycles) / float64(base.Cycles),
				r.ActivePowerWatts / base.ActivePowerWatts
		}
		abE, abP := norm(citadel.AcrossBanks, citadel.NoProtection)
		acE, acP := norm(citadel.AcrossChannels, citadel.NoProtection)
		dpE, dpP := norm(citadel.SameBank, citadel.Protection3DP)
		fmt.Printf("%-12s | %8.3fx %10.2fx | %8.3fx %10.2fx | %8.3fx %10.2fx\n",
			name, abE, abP, acE, acP, dpE, dpP)
	}

	fmt.Println("\nStriping tolerates bank failures but costs bank-level parallelism")
	fmt.Println("and multiplies activations; 3DP keeps the line in one bank and adds")
	fmt.Println("only read-before-write plus cached parity updates.")

	// Figure 13's enabler: Dimension-1 parity lines hit in the LLC ~85% of
	// the time because rate-mode cores reuse the same (row, slot) parity
	// lines across channels.
	fmt.Printf("\n%-12s %s\n", "benchmark", "parity-update LLC hit rate")
	for _, name := range names {
		b, _ := citadel.BenchmarkByName(name)
		r := citadel.MeasureParityCachingContext(ctx, b, 200000, 7)
		fmt.Printf("%-12s %25.1f%%\n", name, 100*r.HitRate())
	}
}
