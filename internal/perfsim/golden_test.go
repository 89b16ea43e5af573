package perfsim

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stack"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_counters.json")

// goldenPath holds the integer counters of a fixed set of runs. The
// counters depend only on the request stream and the address mapping, so
// any change to either shows up here; float fields are left out because
// architectures that fuse multiply-adds may round them differently.
const goldenPath = "testdata/golden_counters.json"

// goldenRun is the integer part of one timing-model run's Stats.
type goldenRun struct {
	RowHits, RowMisses, Reads, ParityUpdates uint64
	RequestsDone                             int
	Activates, ReadBytes, WriteBytes         uint64
}

// goldenParity is the integer part of one parity-caching measurement.
type goldenParity struct {
	ParityProbes, ParityHits uint64
}

type goldenFile struct {
	Runs   map[string]goldenRun
	Parity map[string]goldenParity
}

// goldenCounters runs every organization × striping × overhead case and
// a few parity-caching geometries.
func goldenCounters(t *testing.T) goldenFile {
	t.Helper()
	out := goldenFile{Runs: map[string]goldenRun{}, Parity: map[string]goldenParity{}}
	overheads := []struct {
		name string
		ov   Overheads
	}{
		{"none", Overheads{}},
		{"3dp", Citadel3DP(0.85)},
		{"3dp-nocache", Citadel3DPNoCache()},
	}
	p := prof(t, "mcf")
	for _, org := range stack.Organizations() {
		for _, striping := range stack.Stripings() {
			for _, o := range overheads {
				cfg := runCfg(striping, o.ov, 20000)
				cfg.Stack = org.Config
				cfg.Seed = 7
				st := Run(p, cfg)
				out.Runs[fmt.Sprintf("%s/%v/%s", org.Name, striping, o.name)] = goldenRun{
					RowHits: st.RowHits, RowMisses: st.RowMisses, Reads: st.Reads,
					ParityUpdates: st.ParityUpdates, RequestsDone: st.RequestsDone,
					Activates: st.Power.Activates, ReadBytes: st.Power.ReadBytes,
					WriteBytes: st.Power.WriteBytes,
				}
			}
		}
	}
	for _, name := range []string{"mcf", "lbm", "tigr"} {
		for _, g := range []struct{ bytes, ways int }{{1 << 20, 4}, {2 << 20, 16}} {
			r := ParityCacheHitRate(prof(t, name), g.bytes, g.ways, 60000, 3)
			out.Parity[fmt.Sprintf("%s/%dKiB/%dway", name, g.bytes>>10, g.ways)] = goldenParity{
				ParityProbes: r.ParityProbes, ParityHits: r.ParityHits,
			}
		}
	}
	return out
}

// TestGoldenCounters pins the timing model's integer counters to the
// values recorded in testdata; run with -update to re-record them after
// an intended change to the model.
func TestGoldenCounters(t *testing.T) {
	g := goldenCounters(t)
	got, err := json.MarshalIndent(g, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var w goldenFile
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	for k, wr := range w.Runs {
		if gr, ok := g.Runs[k]; !ok || gr != wr {
			t.Errorf("%s: got %+v, want %+v", k, gr, wr)
		}
	}
	for k, wp := range w.Parity {
		if gp, ok := g.Parity[k]; !ok || gp != wp {
			t.Errorf("%s: got %+v, want %+v", k, gp, wp)
		}
	}
	if len(g.Runs) != len(w.Runs) || len(g.Parity) != len(w.Parity) {
		t.Errorf("case count changed: %d runs + %d parity, golden has %d + %d",
			len(g.Runs), len(g.Parity), len(w.Runs), len(w.Parity))
	}
}
