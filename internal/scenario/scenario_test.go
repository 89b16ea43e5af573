package scenario

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/stack"
)

// The twelve seed-era scheme names, as the paper's figures print them.
var seedSchemes = []string{
	"None", "Symbol8/Same-Bank", "Symbol8/Across-Banks", "Symbol8/Across-Channels",
	"1DP", "2DP", "3DP", "3DP+DDS", "Citadel", "BCH-6EC7ED", "RAID-5", "2D-ECC",
}

func TestSeedSchemesRegistered(t *testing.T) {
	for _, name := range seedSchemes {
		s, ok := SchemeByName(name)
		if !ok {
			t.Fatalf("seed scheme %q not registered", name)
		}
		pol, err := s.Build(stack.DefaultConfig(), nil)
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		if pol.Name != name {
			t.Fatalf("policy name = %q, want %q", pol.Name, name)
		}
		if pol.Predicate == nil {
			t.Fatalf("scheme %q built a nil predicate", name)
		}
	}
	c, ok := SchemeByName("Citadel")
	if !ok {
		t.Fatal("Citadel missing")
	}
	pol, err := c.Build(stack.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pol.UseTSVSwap || pol.NewSparer == nil {
		t.Fatalf("Citadel policy lost TSV-SWAP or DDS: %+v", pol)
	}
}

func TestNewScenariosRegistered(t *testing.T) {
	for _, name := range []string{"two-tier-replication", "cerberus-cross-layer"} {
		if _, ok := SchemeByName(name); !ok {
			t.Fatalf("scheme %q not registered", name)
		}
	}
	if _, ok := FaultModelByName("rowhammer"); !ok {
		t.Fatal("fault model rowhammer not registered")
	}
}

func TestFaultModelDefault(t *testing.T) {
	m, ok := FaultModelByName("")
	if !ok || m.Name != DefaultFaultModel {
		t.Fatalf("empty name resolved to (%q, %t), want (%q, true)", m.Name, ok, DefaultFaultModel)
	}
	if _, ok := FaultModelByName("no-such-model"); ok {
		t.Fatal("unknown fault model resolved")
	}
	if _, ok := SchemeByName("no-such-scheme"); ok {
		t.Fatal("unknown scheme resolved")
	}
}

// The poisson plugin must construct the exact sampler the engine builds
// when Options.NewArrivals is nil — same type, same draw sequence.
func TestPoissonPluginMatchesEngineDefault(t *testing.T) {
	cfg := stack.DefaultConfig()
	rates := fault.Table1().WithTSV(1430)
	factory, err := BuildFaultModel("", cfg, rates, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := factory()
	if _, ok := src.(*fault.Sampler); !ok {
		t.Fatalf("poisson plugin built %T, want *fault.Sampler", src)
	}
}

func TestValidateParams(t *testing.T) {
	cases := []struct {
		scheme, model string
		params        Params
		wantErr       string
	}{
		{"Citadel", "", nil, ""},
		{"two-tier-replication", "", Params{"fetchLatencyMicros": 1}, ""},
		{"Citadel", "rowhammer", Params{"aggressors": 8}, ""},
		// Shared flat namespace: scheme and model knobs in one map.
		{"two-tier-replication", "rowhammer", Params{"fetchLatencyMicros": 1, "aggressors": 2}, ""},
		{"Citadel", "", Params{"fetchLatencyMicros": 1}, "unknown parameter"},
		{"Citadel", "rowhammer", Params{"bogus": 1}, "bogus"},
		{"no-such-scheme", "", nil, "unknown scheme"},
		{"Citadel", "no-such-model", nil, "unknown fault model"},
	}
	for _, c := range cases {
		err := ValidateParams(c.scheme, c.model, c.params)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("ValidateParams(%q, %q, %v) = %v, want nil", c.scheme, c.model, c.params, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("ValidateParams(%q, %q, %v) = %v, want error containing %q", c.scheme, c.model, c.params, err, c.wantErr)
		}
	}
}

func TestParamsGet(t *testing.T) {
	p := Params{"a": 2}
	if got := p.Get("a", 7); got != 2 {
		t.Fatalf("Get(a) = %g", got)
	}
	if got := p.Get("b", 7); got != 7 {
		t.Fatalf("Get(b) = %g", got)
	}
	var nilP Params
	if got := nilP.Get("a", 7); got != 7 {
		t.Fatalf("nil Get(a) = %g", got)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	build := func(stack.Config, Params) (faultsim.Policy, error) { return faultsim.Policy{}, nil }
	mustPanic("empty name", func() { RegisterScheme(Scheme{Build: build}) })
	mustPanic("nil build", func() { RegisterScheme(Scheme{Name: "x"}) })
	mustPanic("duplicate", func() { RegisterScheme(Scheme{Name: "Citadel", Build: build}) })
	mbuild := func(stack.Config, fault.Rates, Params) (func() faultsim.Arrivals, error) { return nil, nil }
	mustPanic("model empty name", func() { RegisterFaultModel(FaultModel{Build: mbuild}) })
	mustPanic("model nil build", func() { RegisterFaultModel(FaultModel{Name: "x"}) })
	mustPanic("model duplicate", func() { RegisterFaultModel(FaultModel{Name: "poisson", Build: mbuild}) })
}

func TestCatalog(t *testing.T) {
	c := BuildCatalog()
	if len(c.Schemes) < len(seedSchemes)+2 {
		t.Fatalf("catalog has %d schemes, want >= %d", len(c.Schemes), len(seedSchemes)+2)
	}
	if len(c.FaultModels) < 2 {
		t.Fatalf("catalog has %d fault models, want >= 2", len(c.FaultModels))
	}
	if !sort.SliceIsSorted(c.Schemes, func(i, j int) bool { return c.Schemes[i].Name < c.Schemes[j].Name }) {
		t.Fatal("schemes not sorted")
	}
	if !sort.SliceIsSorted(c.FaultModels, func(i, j int) bool { return c.FaultModels[i].Name < c.FaultModels[j].Name }) {
		t.Fatal("fault models not sorted")
	}
	// The catalog is what GET /api/v1/scenarios serves; it must marshal
	// and carry the documented JSON field names.
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"schemes"`, `"faultModels"`, `"rowhammer"`, `"params"`, `"default"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("catalog JSON missing %s", want)
		}
	}
}
