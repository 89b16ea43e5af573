package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	citadel "repro"
)

// An exemplar with one edited fault prints DIVERGED and exits 1, while
// the untouched report prints every exemplar as reproduced and exits 0.
func TestReplayForensicsFlagsEditedFault(t *testing.T) {
	opts := citadel.ReliabilityOptions{
		Rates:     citadel.Table1Rates().WithTSV(20000),
		Trials:    1000,
		Seed:      3,
		Forensics: true,
	}
	res, err := citadel.SimulateScenarioReliabilityContext(context.Background(), opts, "Citadel")
	if err != nil {
		t.Fatal(err)
	}
	report, err := citadel.NewForensicsReport(opts, "Citadel", res)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Exemplars) < 2 {
		t.Fatalf("want at least 2 exemplars, got %d", len(report.Exemplars))
	}
	replay := func(r citadel.ForensicsReport) (int, string) {
		t.Helper()
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "report.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		code := replayForensics(&out, path)
		return code, out.String()
	}

	if code, out := replay(report); code != 0 || strings.Contains(out, "DIVERGED") {
		t.Fatalf("untouched report: exit %d\n%s", code, out)
	}

	ex := report.Exemplars[1]
	ex.Faults = append(ex.Faults[:0:0], ex.Faults...)
	ex.Faults[0].Region.Stack ^= 1
	report.Exemplars = append(report.Exemplars[:0:0], report.Exemplars...)
	report.Exemplars[1] = ex
	code, out := replay(report)
	if code != 1 {
		t.Errorf("edited report: exit %d, want 1\n%s", code, out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "exemplar 1:") && !strings.HasPrefix(line, "exemplar 1: DIVERGED") {
			t.Errorf("edited exemplar printed %q, want DIVERGED", line)
		}
	}
	if !strings.Contains(out, "exemplar 1: DIVERGED") || !strings.Contains(out, "exemplar 0: reproduced") {
		t.Errorf("edited report output:\n%s", out)
	}
}
