// Command citbench is the repository benchmark: it drives the Citadel
// reproduction end to end on one of a fixed set of workloads, checks that
// the outputs are correct, and prints every metric by name with its unit.
//
//	bash citbench/run.sh --workload sweep-direct --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer ledger,
// measured by timing calls into each layer's public functions from this
// package, and the run writes its spans as Chrome trace JSON under
// .bench_build/. See README.md for the workloads and the metric table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs/trace"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one run's settings and accumulates its results. Workload
// functions fill metrics, checks and the operation counts; main prints
// them.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// scale shrinks every workload's per-operation size; tests use it for
	// tiny smoke runs. Production runs use 1.
	scale float64
	// dir is a fresh scratch directory for stores; removed at exit.
	dir string
	// breakCheck names a correctness check to force-fail; tests use it to
	// prove that a failing check makes the run exit non-zero.
	breakCheck string
	out        io.Writer
	// rec holds the benchmark's own spans (cells, passes, jobs, chunks,
	// sampled trial replays); engine is handed to the engines, whose
	// per-trial events would otherwise overwrite the coarse spans.
	rec, engine *trace.Recorder

	metrics   map[string]metric
	failures  []string
	attempted int
	failed    int
}

var workloads = map[string]func(*bench) error{
	"sweep-direct": runSweep,
	"perf-model":   runPerf,
}

// endToEnd lists the metrics every workload prints with --trace 0, with
// their units. Their meaning per workload is in README.md.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("citbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep-direct or perf-model")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "citbench: need --workload %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%s-%d", *name, os.Getpid()))
	b := &bench{
		workload: *name, seed: *seed, seconds: *seconds, traced: *traceFlag == 1,
		scale: 1, dir: dir, out: stdout,
	}
	defer os.RemoveAll(dir)
	return b.execute(stderr)
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// execute runs the workload, prints the human-readable lines and the
// JSON result, and returns the exit code: 0 only when every check passed.
func (b *bench) execute(stderr io.Writer) int {
	b.metrics = make(map[string]metric)
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "citbench: %v\n", err)
		return 1
	}
	if b.traced {
		b.rec = trace.New(trace.Options{Capacity: 1 << 16, SampleEvery: 64, Seed: b.seed, RunID: b.workload})
		b.engine = trace.New(trace.Options{Capacity: 1 << 16, SampleEvery: 1024, Seed: b.seed, RunID: b.workload})
	}
	b.stampHost()
	wall := time.Now()
	err := workloads[b.workload](b)
	if err != nil {
		fmt.Fprintf(stderr, "citbench: %s: %v\n", b.workload, err)
		return 1
	}
	if b.traced {
		if err := b.writeTrace(); err != nil {
			fmt.Fprintf(stderr, "citbench: %v\n", err)
			return 1
		}
		// The ledger is the same list on every workload; layers this
		// workload does not reach read 0.
		for _, m := range perLayer() {
			if _, ok := b.metrics[m.name]; !ok {
				b.metrics[m.name] = metric{Value: 0, Unit: m.unit}
			}
		}
		for name := range b.metrics {
			if !isPerLayer(name) {
				fmt.Fprintf(stderr, "citbench: %s measured undeclared metric %s\n", b.workload, name)
				return 1
			}
		}
	} else {
		b.set("peak_rss_mb", peakRSSMB(), "MB")
		for _, m := range endToEnd {
			if _, ok := b.metrics[m.name]; !ok {
				fmt.Fprintf(stderr, "citbench: %s did not measure %s\n", b.workload, m.name)
				return 1
			}
		}
	}
	if b.attempted < 1 {
		b.fail("attempted", "no operation completed")
	}
	fmt.Fprintf(b.out, "op_fail_ratio = %.6g (%d failed of %d attempted)\n",
		ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	if b.failed > 0 {
		b.fail("operations", fmt.Sprintf("%d of %d operations failed or were refused", b.failed, b.attempted))
	}
	fmt.Fprintf(b.out, "wall_s = %.3f\n", time.Since(wall).Seconds())
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b.out, "metric %s = %.6g %s\n", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	rep := report{Correct: len(b.failures) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "citbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(b.out, "%s\n", line)
	if !rep.Correct {
		for _, f := range b.failures {
			fmt.Fprintf(stderr, "citbench: check failed: %s\n", f)
		}
		return 1
	}
	return 0
}

func isPerLayer(name string) bool {
	for _, m := range perLayer() {
		if m.name == name {
			return true
		}
	}
	return false
}

// set records a metric. Non-finite values are a benchmark bug.
func (b *bench) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.fail("metric "+name, fmt.Sprintf("non-finite value %v", v))
		v = 0
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// check records a correctness check; ok false makes the run exit 1.
func (b *bench) check(name string, ok bool, detail string) {
	if name == b.breakCheck {
		ok = false
		detail += " (forced failure)"
	}
	status := "ok"
	if !ok {
		status = "FAIL"
		b.failures = append(b.failures, name+": "+detail)
	}
	fmt.Fprintf(b.out, "check %s: %s %s\n", name, status, detail)
}

func (b *bench) fail(name, detail string) { b.check(name, false, detail) }

// info prints a human-readable line that is not a metric.
func (b *bench) info(format string, args ...any) {
	fmt.Fprintf(b.out, format+"\n", args...)
}

// size scales a per-operation work size, never below min.
func (b *bench) size(n, min int) int {
	v := int(float64(n) * b.scale)
	if v < min {
		v = min
	}
	return v
}

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median, so one slow first-touch does not decide it.
const setupRepeats = 5

// timeSetup runs setup setupRepeats times (teardown between repeats,
// never after the last) and records setup_s as the median duration of an
// untraced run.
func (b *bench) timeSetup(setup func(last bool) error) error {
	var ds []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := setup(i == setupRepeats-1); err != nil {
			return err
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	if !b.traced {
		b.set("setup_s", median(ds), "s")
	}
	return nil
}

// recordOps records the end-to-end operation metric from per-operation
// durations (milliseconds) over the measured window. Both workloads are
// batch work of a fixed size per operation, so the median operation time
// is the gated figure (work per second at a stated size). The p90 and the
// mean rate are printed for people: on a shared host they swing with
// neighbours' bursts far more than the median does.
func (b *bench) recordOps(opsMs []float64, window time.Duration) {
	b.set("op_p50_ms", median(opsMs), "ms")
	b.info("op_p90_ms = %.3f ms over %d operations (%d beyond it); ops_per_s = %.3f",
		percentile(opsMs, 90), len(opsMs), samplesBeyond(len(opsMs), 90), float64(len(opsMs))/window.Seconds())
}

// stampHost prints the facts a result needs to be compared across hosts.
func (b *bench) stampHost() {
	b.info("host nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit())
	b.info("run workload=%s seed=%d seconds=%g trace=%v", b.workload, b.seed, b.seconds, b.traced)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reports the VCS revision stamped at build time; a build outside
// a git checkout has none.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeTrace dumps both recorders as Chrome trace JSON.
func (b *bench) writeTrace() error {
	base := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d", b.workload, b.seed))
	if b.scale != 1 {
		base = filepath.Join(b.dir, "trace")
	}
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	for _, t := range []struct {
		path string
		rec  *trace.Recorder
	}{{base + ".json", b.rec}, {base + "-engine.json", b.engine}} {
		f, err := os.Create(t.path)
		if err != nil {
			return err
		}
		werr := t.rec.WriteChromeTrace(f)
		if err := f.Close(); werr == nil {
			werr = err
		}
		if werr != nil {
			return fmt.Errorf("writing trace: %w", werr)
		}
		_, dropped := t.rec.Snapshot()
		b.info("trace written to %s (%d events kept, %d overwritten)", t.path, t.rec.Len(), dropped)
	}
	return nil
}

// span records a complete span from start to now on the recorder.
func (b *bench) span(name, cat string, tid int64, start float64, args ...trace.Arg) {
	b.rec.Complete(name, cat, tid, start, b.rec.Now()-start, args...)
}

var errNoOps = errors.New("no operation completed in the measured window")
