// Command benchjson converts `go test -bench` output (read from stdin) into
// a JSON benchmark report. The report keeps the verbatim benchmark lines —
// so `jq -r '.raw[]' BENCH_faultsim.json | benchstat /dev/stdin` works and
// two reports can be diffed with benchstat — alongside parsed per-benchmark
// metrics for dashboards.
//
// Usage:
//
//	go test -bench=... -benchmem ./... | benchjson -o BENCH_faultsim.json
//	go test -bench=... -benchmem ./... | benchjson -compare BENCH_faultsim.json
//
// -compare gates performance against a baseline report: the run fails
// (exit 1) when any benchmark present in both reports regresses a tracked
// throughput (trials/s, requests/s, ...) by more than -tolerance (default
// 10%) or increases its allocs/op at all. Each side is summarized per
// benchmark name by the median of its repeats (`go test -count=N` prints
// one line per repeat), so a single noisy repeat cannot fail the gate.
// Benchmarks are matched by name without the -GOMAXPROCS suffix, so a
// baseline recorded at another core count still gates. Benchmarks missing
// from either side are reported but do not fail the gate.
//
// Non-benchmark lines (PASS, ok, test logs) are ignored; context lines
// (goos/goarch/pkg/cpu) are captured into the report header.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one parsed `Benchmark*` result line.
type Benchmark struct {
	Name string `json:"name"`
	Pkg  string `json:"pkg,omitempty"`
	// Runs is the iteration count (b.N).
	Runs int64 `json:"runs"`
	// Metrics maps unit -> value for every reported pair, e.g.
	// "ns/op", "B/op", "allocs/op", "trials/s", "MB/s".
	Metrics map[string]float64 `json:"metrics"`
	// Raw is the verbatim line, benchstat-consumable.
	Raw string `json:"raw"`
}

// Report is the whole JSON document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Raw preserves every benchmark and context line in order, forming a
	// valid benchstat input when joined with newlines.
	Raw []string `json:"raw"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	compare := flag.String("compare", "", "baseline report to gate against (exit 1 on regression)")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional trials/s regression vs the baseline")
	flag.Parse()

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	if *compare != "" {
		data, err := os.ReadFile(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var base Report
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parsing %s: %v\n", *compare, err)
			os.Exit(1)
		}
		regressions, notes := compareReports(&base, rep, *tolerance)
		for _, n := range notes {
			fmt.Println(n)
		}
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "REGRESSION:", r)
			}
			os.Exit(1)
		}
		fmt.Printf("benchjson: no regressions vs %s (%d benchmarks compared)\n",
			*compare, len(notes))
		return
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// throughputUnits are the higher-is-better rates the gate tracks:
// trials/s is raw engine speed, efftrials/s the rare-event engine's
// variance-equivalent naive throughput (its whole reason to exist — a
// bias regression shows up here long before wall-clock moves),
// frames/s the SSE hub's fan-out rate, polls/s the conditional-GET
// revalidation rate on the job-status route, requests/s the timing
// model's, LLC model's and request generator's memory-request rate, and
// lines/s the stack address mapping's rate.
var throughputUnits = []string{"trials/s", "efftrials/s", "frames/s", "polls/s", "requests/s", "lines/s"}

// summary is one benchmark name's repeats reduced to per-unit medians.
type summary struct {
	name    string // as printed by the first repeat
	metrics map[string]float64
}

// summarize groups rep's benchmarks by package and name without the
// GOMAXPROCS suffix, and reduces each group's repeats to the median of
// every unit. It returns the group keys in first-seen order.
func summarize(rep *Report) ([]string, map[string]summary) {
	suffix := procsSuffix(rep)
	var keys []string
	samples := map[string]map[string][]float64{}
	names := map[string]string{}
	for _, b := range rep.Benchmarks {
		k := b.Pkg + "/" + strings.TrimSuffix(b.Name, suffix)
		if samples[k] == nil {
			keys = append(keys, k)
			samples[k] = map[string][]float64{}
			names[k] = b.Name
		}
		for unit, v := range b.Metrics {
			samples[k][unit] = append(samples[k][unit], v)
		}
	}
	out := make(map[string]summary, len(keys))
	for k, units := range samples {
		m := make(map[string]float64, len(units))
		for unit, vs := range units {
			m[unit] = median(vs)
		}
		out[k] = summary{name: names[k], metrics: m}
	}
	return keys, out
}

// median returns the middle repeat, the lower of the two middle ones for
// an even count, so that integer metrics such as allocs/op stay integers.
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

// compareReports gates cur against base on the per-name medians of their
// repeats: a benchmark regresses when any tracked throughput unit drops
// more than tolerance below the baseline, or its allocs/op rises above
// the baseline at all (the trial loop is a zero-allocation contract, so
// any increase is a leak, not noise). Returns the failing descriptions
// plus one human-readable note per compared benchmark name.
func compareReports(base, cur *Report, tolerance float64) (regressions, notes []string) {
	_, baseline := summarize(base)
	keys, current := summarize(cur)
	for _, k := range keys {
		b := current[k]
		old, ok := baseline[k]
		if !ok {
			notes = append(notes, fmt.Sprintf("%-50s new (no baseline)", b.name))
			continue
		}
		line := fmt.Sprintf("%-50s", b.name)
		for _, unit := range throughputUnits {
			bt, ct := old.metrics[unit], b.metrics[unit]
			if bt <= 0 {
				continue
			}
			ratio := ct / bt
			line += fmt.Sprintf(" %s %.0f -> %.0f (%+.1f%%)", unit, bt, ct, 100*(ratio-1))
			if ratio < 1-tolerance {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %s %.0f -> %.0f (%.1f%% below baseline, tolerance %.0f%%)",
					b.name, unit, bt, ct, 100*(1-ratio), 100*tolerance))
			}
		}
		if ba, ok := old.metrics["allocs/op"]; ok {
			ca := b.metrics["allocs/op"]
			line += fmt.Sprintf(" allocs/op %.0f -> %.0f", ba, ca)
			if ca > ba {
				regressions = append(regressions, fmt.Sprintf(
					"%s: allocs/op %.0f -> %.0f (any increase fails)", b.name, ba, ca))
			}
		}
		notes = append(notes, line)
	}
	return regressions, notes
}

// procsSuffix returns the "-N" GOMAXPROCS suffix `go test` appended to
// every benchmark name of the report, or "" when there is none (it
// appends nothing at GOMAXPROCS 1). The suffix is inferred as the one
// every name shares, because a name may itself end in "-<digits>".
func procsSuffix(rep *Report) string {
	suffix := ""
	for i, b := range rep.Benchmarks {
		dash := strings.LastIndexByte(b.Name, '-')
		if dash < 0 {
			return ""
		}
		if _, err := strconv.Atoi(b.Name[dash+1:]); err != nil {
			return ""
		}
		if i == 0 {
			suffix = b.Name[dash:]
		} else if b.Name[dash:] != suffix {
			return ""
		}
	}
	return suffix
}

func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(trimmed, "goos:"))
			rep.Raw = append(rep.Raw, line)
		case strings.HasPrefix(trimmed, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(trimmed, "goarch:"))
			rep.Raw = append(rep.Raw, line)
		case strings.HasPrefix(trimmed, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(trimmed, "cpu:"))
			rep.Raw = append(rep.Raw, line)
		case strings.HasPrefix(trimmed, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(trimmed, "pkg:"))
			rep.Raw = append(rep.Raw, line)
		case strings.HasPrefix(trimmed, "Benchmark"):
			b, ok := parseBenchLine(trimmed)
			if !ok {
				continue
			}
			b.Pkg = pkg
			rep.Benchmarks = append(rep.Benchmarks, b)
			rep.Raw = append(rep.Raw, line)
		}
	}
	return rep, sc.Err()
}

// parseBenchLine parses "BenchmarkName-8  1000  123 ns/op  0 B/op ...".
// The name may carry a -GOMAXPROCS suffix; value/unit pairs follow the
// iteration count.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{
		Name:    fields[0],
		Runs:    runs,
		Metrics: map[string]float64{},
		Raw:     line,
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
