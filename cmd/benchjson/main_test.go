package main

import (
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/faultsim
cpu: Test CPU
BenchmarkTrials/Citadel-8   	     100	  10000000 ns/op	       100000 trials/s	       0 B/op	       0 allocs/op
BenchmarkTrialStateRun-8    	    1000	   1000000 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/faultsim	2.0s
`

func mustParse(t *testing.T, s string) *Report {
	t.Helper()
	rep, err := parse(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestParseBenchOutput(t *testing.T) {
	rep := mustParse(t, benchOutput)
	if rep.Goos != "linux" || rep.CPU != "Test CPU" {
		t.Fatalf("header = %q/%q", rep.Goos, rep.CPU)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Pkg != "repro/internal/faultsim" {
		t.Fatalf("pkg = %q", b.Pkg)
	}
	if b.Metrics["trials/s"] != 100000 || b.Metrics["allocs/op"] != 0 {
		t.Fatalf("metrics = %v", b.Metrics)
	}
}

func TestCompareNoRegression(t *testing.T) {
	base := mustParse(t, benchOutput)
	// 5% slower is inside the 10% tolerance.
	cur := mustParse(t, strings.ReplaceAll(benchOutput, "100000 trials/s", "95000 trials/s"))
	regressions, notes := compareReports(base, cur, 0.10)
	if len(regressions) != 0 {
		t.Fatalf("unexpected regressions: %v", regressions)
	}
	if len(notes) != 2 {
		t.Fatalf("got %d notes, want 2: %v", len(notes), notes)
	}
}

func TestCompareThroughputRegression(t *testing.T) {
	base := mustParse(t, benchOutput)
	cur := mustParse(t, strings.ReplaceAll(benchOutput, "100000 trials/s", "80000 trials/s"))
	regressions, _ := compareReports(base, cur, 0.10)
	if len(regressions) != 1 || !strings.Contains(regressions[0], "trials/s") {
		t.Fatalf("regressions = %v, want one trials/s failure", regressions)
	}
}

func TestCompareAllocRegression(t *testing.T) {
	base := mustParse(t, benchOutput)
	// Any alloc increase fails, even with throughput unchanged.
	cur := mustParse(t, strings.Replace(benchOutput, "0 allocs/op", "1 allocs/op", 1))
	regressions, _ := compareReports(base, cur, 0.10)
	if len(regressions) != 1 || !strings.Contains(regressions[0], "allocs/op") {
		t.Fatalf("regressions = %v, want one allocs/op failure", regressions)
	}
}

func TestCompareIgnoresUnmatchedBenchmarks(t *testing.T) {
	base := mustParse(t, benchOutput)
	cur := mustParse(t, strings.ReplaceAll(benchOutput, "BenchmarkTrialStateRun", "BenchmarkBrandNew"))
	regressions, notes := compareReports(base, cur, 0.10)
	if len(regressions) != 0 {
		t.Fatalf("unexpected regressions: %v", regressions)
	}
	found := false
	for _, n := range notes {
		if strings.Contains(n, "BenchmarkBrandNew") && strings.Contains(n, "no baseline") {
			found = true
		}
	}
	if !found {
		t.Fatalf("new benchmark not noted: %v", notes)
	}
}

// TestCompareAcrossGOMAXPROCS pins that the gate matches benchmarks
// recorded at different core counts: names are compared without the
// -GOMAXPROCS suffix, which is absent at GOMAXPROCS 1.
func TestCompareAcrossGOMAXPROCS(t *testing.T) {
	base := mustParse(t, benchOutput) // recorded at -8
	for _, suffix := range []string{"-2", ""} {
		cur := mustParse(t, strings.ReplaceAll(
			strings.ReplaceAll(benchOutput, "-8 ", suffix+" "),
			"100000 trials/s", "80000 trials/s"))
		regressions, notes := compareReports(base, cur, 0.10)
		if len(regressions) != 1 || !strings.Contains(regressions[0], "trials/s") {
			t.Errorf("suffix %q: regressions = %v, want one trials/s failure", suffix, regressions)
		}
		for _, n := range notes {
			if strings.Contains(n, "no baseline") {
				t.Errorf("suffix %q: unmatched benchmark: %q", suffix, n)
			}
		}
	}
}

// TestProcsSuffix pins the suffix inference: a name's own trailing
// "-<digits>" is not mistaken for GOMAXPROCS unless every name shares it.
func TestProcsSuffix(t *testing.T) {
	for _, tc := range []struct {
		names []string
		want  string
	}{
		{[]string{"BenchmarkA-4", "BenchmarkB/sub-64-4"}, "-4"},
		{[]string{"BenchmarkA", "BenchmarkB/sub-64"}, ""},
		{[]string{"BenchmarkA-2", "BenchmarkB-4"}, ""},
		{nil, ""},
	} {
		rep := &Report{}
		for _, n := range tc.names {
			rep.Benchmarks = append(rep.Benchmarks, Benchmark{Name: n})
		}
		if got := procsSuffix(rep); got != tc.want {
			t.Errorf("procsSuffix(%v) = %q, want %q", tc.names, got, tc.want)
		}
	}
}

// TestCompareMediansOfRepeats pins the -count=N gate: each side is
// reduced to the per-name median of its repeats, so outlying repeats on
// either side neither fail nor mask a regression, for throughput and
// allocs/op alike.
func TestCompareMediansOfRepeats(t *testing.T) {
	repeats := func(trials ...string) string {
		out := "goos: linux\npkg: repro/internal/faultsim\n"
		for i, tr := range trials {
			allocs := "0"
			if i == 0 {
				allocs = "3" // one noisy repeat
			}
			out += "BenchmarkTrials/Citadel-2   100   10000000 ns/op   " + tr + " trials/s   0 B/op   " + allocs + " allocs/op\n"
		}
		return out
	}
	base := mustParse(t, repeats("100000", "100000", "60000", "100000", "100000"))
	for _, tc := range []struct {
		name   string
		trials []string
		want   int
	}{
		{"two slow repeats", []string{"50000", "99000", "40000", "98000", "97000"}, 0},
		{"three slow repeats", []string{"80000", "99000", "70000", "75000", "97000"}, 1},
	} {
		regressions, notes := compareReports(base, mustParse(t, repeats(tc.trials...)), 0.10)
		if len(regressions) != tc.want {
			t.Errorf("%s: regressions = %v, want %d", tc.name, regressions, tc.want)
		}
		if len(notes) != 1 {
			t.Errorf("%s: got %d notes, want one per name: %v", tc.name, len(notes), notes)
		}
	}
	// The median of the allocs/op repeats is 0 on both sides; a median
	// that rises fails.
	cur := mustParse(t, strings.ReplaceAll(repeats("100000", "100000", "100000"), " 0 allocs/op", " 1 allocs/op"))
	regressions, _ := compareReports(base, cur, 0.10)
	if len(regressions) != 1 || !strings.Contains(regressions[0], "allocs/op 0 -> 1") {
		t.Errorf("regressions = %v, want one allocs/op 0 -> 1 failure", regressions)
	}
}
