package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct{ p, want float64 }{
		{50, 5.5}, {90, 9.1}, {100, 10}, {0, 1}, {25, 3.25}, {75, 7.75},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(p%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{3}); got != 3 {
		t.Errorf("median of one sample = %g", got)
	}
}

func TestSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{100, 90, 10}, {99, 90, 9}, {40, 75, 10}, {500, 98, 10}, {7, 50, 3},
	} {
		if got := samplesBeyond(tc.n, tc.p); got != tc.beyond {
			t.Errorf("samplesBeyond(%d, p%g) = %d, want %d", tc.n, tc.p, got, tc.beyond)
		}
	}
}

func TestRatioAndWilson(t *testing.T) {
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio over an empty base = %g, want 0", got)
	}
	if got := ratio(1, 4); got != 0.25 {
		t.Errorf("ratio(1, 4) = %g", got)
	}
	const z95 = 1.959963984540054
	lo, hi := wilson(0, 1000, z95)
	if lo > 1e-12 || hi < 0.0035 || hi > 0.0040 {
		t.Errorf("wilson(0, 1000) = [%g, %g], want [0, ~3.8e-3]", lo, hi)
	}
	lo, hi = wilson(500, 1000, z95)
	if math.Abs((lo+hi)/2-0.5) > 1e-12 || hi-lo < 0.06 || hi-lo > 0.063 {
		t.Errorf("wilson(500, 1000) = [%g, %g]", lo, hi)
	}
	if lo99, hi99 := wilson(500, 1000, zCheck); lo99 >= lo || hi99 <= hi {
		t.Errorf("99.9%% interval [%g, %g] is not wider than the 95%% one", lo99, hi99)
	}
	if !overlaps(0, 1, 1, 2) || overlaps(0, 1, 1.5, 2) || !overlaps(1.5, 2, 0, 3) {
		t.Error("overlaps is wrong at the edges")
	}
}

const promText = `# HELP citadel_jobs_cache_hits_total Results served from cache.
# TYPE citadel_jobs_cache_hits_total counter
citadel_jobs_cache_hits_total 7
citadel_stream_subscribers 2
citadel_lat_bucket{le="0.5"} 3
citadel_lat_bucket{le="+Inf"} 4
citadel_lat_sum 1.5e+00
`

func TestPromDelta(t *testing.T) {
	before, err := promSample(strings.NewReader(promText))
	if err != nil {
		t.Fatal(err)
	}
	if got := before["citadel_lat_bucket"]; got != 7 {
		t.Errorf("labelled series summed to %g, want 7", got)
	}
	after, err := promSample(strings.NewReader(strings.Replace(promText, "total 7", "total 19", 1) +
		"citadel_new_total 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	d := promDelta(before, after)
	if d["citadel_jobs_cache_hits_total"] != 12 || d["citadel_new_total"] != 5 || d["citadel_stream_subscribers"] != 0 {
		t.Errorf("delta = %v", d)
	}
	if _, err := promSample(strings.NewReader("citadel_x notanumber\n")); err == nil {
		t.Error("malformed value accepted")
	}
	if _, err := promSample(strings.NewReader("lonely\n")); err == nil {
		t.Error("line without a value accepted")
	}
}

func TestReadUntilTerminal(t *testing.T) {
	sse := ": keepalive\n\nid: 1\nevent: progress\ndata: {}\n\nid: 2\nevent: done\ndata: {\"state\":\"done\"}\n\n"
	ev, err := readUntilTerminal(bufio.NewReader(strings.NewReader(sse)))
	if err != nil || ev != "done" {
		t.Fatalf("readUntilTerminal = %q, %v", ev, err)
	}
	if _, err := readUntilTerminal(bufio.NewReader(strings.NewReader("event: progress\ndata: {}\n\n"))); err == nil {
		t.Error("stream without a terminal frame accepted")
	}
}

// smoke runs a workload at a tiny size and returns its exit code and the
// decoded last line.
func smoke(t *testing.T, workload string, traced bool, breakCheck string) (int, report, string) {
	t.Helper()
	var out bytes.Buffer
	b := &bench{
		workload: workload, seed: 3, seconds: 0.2, traced: traced,
		scale: 0.01, dir: t.TempDir(), out: &out, breakCheck: breakCheck,
	}
	code := b.execute(io.Discard)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, out.String())
	}
	return code, rep, checkLines(out.String())
}

// checkLines keeps the check results of a run's output, for failure
// messages.
func checkLines(out string) string {
	var keep []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "check ") || strings.HasPrefix(l, "op_fail_ratio") {
			keep = append(keep, l)
		}
	}
	return strings.Join(keep, "\n")
}

func metricNames(rep report) []string {
	var names []string
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var e2e, layers []string
	for _, m := range endToEnd {
		e2e = append(e2e, m.name)
	}
	for _, m := range perLayer() {
		layers = append(layers, m.name)
	}
	sort.Strings(e2e)
	sort.Strings(layers)
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			code, rep, out := smoke(t, name, traced, "")
			if code != 0 || !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: exit %d, correct=%v, %d of %d failed\n%s",
					name, traced, code, rep.Correct, rep.Failed, rep.Attempted, out)
				continue
			}
			want := e2e
			if traced {
				want = layers
			}
			if got := metricNames(rep); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s traced=%v: metrics %v, want %v", name, traced, got, want)
			}
			if !strings.Contains(out, "check ") {
				t.Errorf("%s traced=%v ran no correctness check", name, traced)
			}
		}
	}
}

// TestFailingCheckExitsNonZero forces one check of each workload to fail
// and expects exit code 1 with correct=false.
func TestFailingCheckExitsNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, tc := range []struct {
		workload string
		traced   bool
		check    string
	}{
		{"sweep-direct", false, "reference.citadel-table1"},
		{"sweep-direct", true, "jobs.fold"},
		{"perf-model", false, "perf.fig5-3dp"},
	} {
		code, rep, out := smoke(t, tc.workload, tc.traced, tc.check)
		if code != 1 || rep.Correct {
			t.Errorf("%s traced=%v with %s forced to fail: exit %d, correct=%v\n%s",
				tc.workload, tc.traced, tc.check, code, rep.Correct, out)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric and workload
// lists in step with what the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if spec.EndToEnd[i].Name != m.name || spec.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %+v, program prints %s %s", i, spec.EndToEnd[i], m.name, m.unit)
		}
	}
	layers := perLayer()
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(layers))
	}
	for i, m := range layers {
		if spec.PerLayer[i].Name != m.name || spec.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %+v, program prints %s %s", i, spec.PerLayer[i], m.name, m.unit)
		}
	}
}
