package citadel

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// A forensics run's report survives a JSON round trip and replays every
// exemplar exactly, for a paper scheme and for a scenario-only plugin; a
// tampered exemplar or an unknown scheme is reported as an error.
func TestForensicsReportReplays(t *testing.T) {
	for _, scheme := range []string{"Citadel", "cerberus-cross-layer"} {
		// A TSV rate far above the paper's sweep makes both schemes fail
		// within a small trial budget; the report records it, so the
		// replay runs at the same rate.
		opts := ReliabilityOptions{
			Rates:     Table1Rates().WithTSV(20000),
			Trials:    1000,
			Seed:      3,
			Forensics: true,
		}
		res := simulate(t, context.Background(), opts, scheme)
		if len(res.Exemplars) == 0 {
			t.Fatalf("%s: no exemplars captured (%d failures)", scheme, res.Failures)
		}
		rep, err := NewForensicsReport(opts, scheme, res)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var back ForensicsReport
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if err := VerifyReport(back); err != nil {
			t.Fatalf("%s: round-tripped report does not replay: %v", scheme, err)
		}

		tampered := back
		tampered.Exemplars = append([]Forensic(nil), back.Exemplars...)
		ex := tampered.Exemplars[0]
		ex.Faults = append(ex.Faults[:0:0], ex.Faults...)
		ex.Faults[0].Hours++
		tampered.Exemplars[0] = ex
		if err := VerifyReport(tampered); err == nil {
			t.Errorf("%s: edited exemplar fault verified", scheme)
		}

		unknown := back
		unknown.Scheme = "no-such"
		if err := VerifyReport(unknown); err == nil {
			t.Errorf("%s: unknown scheme verified", scheme)
		}
		if _, err := ReplayReport(unknown); err == nil {
			t.Errorf("%s: ReplayReport accepted an unknown scheme", scheme)
		}
		if _, err := NewForensicsReport(opts, "no-such", res); err == nil {
			t.Errorf("%s: NewForensicsReport accepted an unknown scheme", scheme)
		}
	}
}

// Reports refuse runs they could not replay: a report records neither
// the fault model nor scenario parameters.
func TestForensicsReportRefusesUnrecordedScenario(t *testing.T) {
	for _, opts := range []ReliabilityOptions{
		{FaultModel: "rowhammer"},
		{ScenarioParams: map[string]float64{"breakthroughProb": 1e-7}},
	} {
		if _, err := NewForensicsReport(opts, "Citadel", Result{}); err == nil {
			t.Errorf("report accepted %+v", opts)
		}
	}
}

// A report records only the TSV FIT, so it refuses a rates file at 50×
// Table I, whose exemplars would replay at Table-I rates and diverge,
// but accepts one that is Table I with another TSV FIT.
func TestForensicsReportRefusesCustomRates(t *testing.T) {
	load := func(r FITRates) FITRates {
		t.Helper()
		data, err := fault.MarshalRates(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "rates.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := fault.LoadRates(path)
		if err != nil {
			t.Fatal(err)
		}
		return loaded
	}
	r := Table1Rates()
	for _, p := range []*float64{
		&r.BitTransient, &r.BitPermanent, &r.WordTransient, &r.WordPermanent,
		&r.ColumnTransient, &r.ColumnPermanent, &r.RowTransient, &r.RowPermanent,
		&r.BankTransient, &r.BankPermanent, &r.TSVPerDie,
	} {
		*p *= 50
	}
	if _, err := NewForensicsReport(ReliabilityOptions{Rates: load(r)}, "3DP", Result{}); err == nil {
		t.Error("report accepted rates at 50x Table I")
	}
	if _, err := NewForensicsReport(ReliabilityOptions{Rates: load(Table1Rates().WithTSV(1430))}, "3DP", Result{}); err != nil {
		t.Errorf("report refused Table I at 1430 TSV FIT: %v", err)
	}
}

// Splitting draws Poisson arrivals itself, so it refuses other fault
// models and unknown schemes instead of silently ignoring them.
func TestSplitRefusesUnsupportedScenario(t *testing.T) {
	ctx := context.Background()
	if _, err := SimulateReliabilitySplitContext(ctx, ReliabilityOptions{Trials: 10}, "no-such", nil); err == nil {
		t.Error("split accepted an unknown scheme")
	}
	if _, err := SimulateReliabilitySplitContext(ctx, ReliabilityOptions{Trials: 10, FaultModel: "rowhammer"}, "Citadel", nil); err == nil {
		t.Error("split accepted a non-default fault model")
	}
}
