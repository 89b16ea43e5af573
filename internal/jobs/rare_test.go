package jobs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/faultsim"
)

// rareSpec is a rare-event campaign cheap enough for unit tests but
// chunked finely enough to interrupt mid-flight.
func rareSpec(seed int64) Spec {
	return Spec{Reliability: &ReliabilitySpec{
		Scheme:           "1DP",
		Trials:           8000,
		CheckpointTrials: 400, // 20 chunks
		Workers:          1,
		Seed:             seed,
		TSVFIT:           1430,
		RareEvent:        true,
		BiasFactor:       8,
	}}
}

// TestRareSpecValidation pins the spec-level contract: biasFactor is
// meaningless without the rare-event engine, and a bias below one would
// deflate rather than inflate the tail.
func TestRareSpecValidation(t *testing.T) {
	bad := Spec{Reliability: &ReliabilitySpec{Scheme: "Citadel", BiasFactor: 4}}
	if err := bad.Validate(); err == nil {
		t.Error("biasFactor without rareEvent accepted")
	}
	bad = Spec{Reliability: &ReliabilitySpec{Scheme: "Citadel", RareEvent: true, BiasFactor: 0.5}}
	if err := bad.Validate(); err == nil {
		t.Error("biasFactor < 1 accepted")
	}
	// An unset bias normalizes to the engine default and passes.
	ok := Spec{Reliability: &ReliabilitySpec{Scheme: "Citadel", RareEvent: true}}
	if err := ok.Validate(); err != nil {
		t.Errorf("rareEvent with defaulted biasFactor rejected: %v", err)
	}
	if n := ok.Normalize(); n.Reliability.BiasFactor <= 1 {
		t.Errorf("normalized BiasFactor = %v, want the engine default > 1", n.Reliability.BiasFactor)
	}
}

// TestRareSpecKeys: the rare-event fields must be part of the content
// address (a biased campaign is a different deterministic computation),
// while plain campaigns must keep their pre-rare-engine keys — omitempty
// keeps the new fields out of a plain spec's canonical JSON entirely.
func TestRareSpecKeys(t *testing.T) {
	plain := smallSpec(42)
	rare := smallSpec(42)
	rare.Reliability.RareEvent = true
	kp, err := plain.Key()
	if err != nil {
		t.Fatal(err)
	}
	kr, err := rare.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kp == kr {
		t.Error("rare and plain campaigns share a content key")
	}
	rare2 := smallSpec(42)
	rare2.Reliability.RareEvent = true
	rare2.Reliability.BiasFactor = 32
	kr2, err := rare2.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kr2 == kr {
		t.Error("different bias factors share a content key")
	}
	// The canonical (normalized) JSON of a plain spec must not mention
	// the new fields at all, or every pre-existing stored result would be
	// orphaned under a new address.
	data, err := json.Marshal(plain.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "rareEvent") || strings.Contains(string(data), "biasFactor") {
		t.Errorf("plain spec's canonical JSON leaks rare-event fields: %s", data)
	}
}

// TestRareCampaignProducesWeightedResult runs a small importance-sampled
// campaign end to end through the orchestrator and checks the chunked,
// checkpointed merge preserved the weighted statistics.
func TestRareCampaignProducesWeightedResult(t *testing.T) {
	o, _ := newOrch(t, t.TempDir(), 1, 4)
	// 1DP at base rates is not rare, so keep the bias mild: with B = 2
	// every failing trial's likelihood ratio stays below one and the
	// estimate stays inside [0, 1]. (At B = 8 the estimator is still
	// unbiased but its per-trial weights exceed 1, so a small campaign's
	// point estimate can legitimately wander above 1 — misuse by config,
	// not a code defect.)
	spec := rareSpec(7)
	spec.Reliability.BiasFactor = 2
	j, err := o.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, o, j.ID)
	if fin.State != StateDone {
		t.Fatalf("campaign: %s (%s)", fin.State, fin.Error)
	}
	var res faultsim.Result
	if err := json.Unmarshal(fin.Result, &res); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}
	if !res.Weighted {
		t.Fatal("rare-event campaign result not Weighted")
	}
	if res.Trials != 8000 {
		t.Errorf("Trials = %d, want 8000", res.Trials)
	}
	if res.Failures == 0 || res.FailWeight <= 0 {
		t.Fatalf("biased 1DP campaign saw no failures (%d, weight %v)", res.Failures, res.FailWeight)
	}
	if res.FailWeightSq <= 0 {
		t.Error("FailWeightSq not populated")
	}
	if p := res.Probability(); p <= 0 || p >= 1 {
		t.Errorf("weighted probability = %v", p)
	}
	if res.CI95() <= 0 {
		t.Error("weighted CI95 not positive")
	}
}

// TestRareCrashResumeDifferential is the weighted twin of
// TestCrashResumeDifferential: a campaign interrupted mid-flight and
// resumed from its checkpoint must reproduce the uninterrupted run's
// weighted statistics bit for bit — float sums fold left-to-right over
// chunks, so any reordering or double-merge shows up as a byte diff.
func TestRareCrashResumeDifferential(t *testing.T) {
	spec := rareSpec(42)

	// Reference: uninterrupted run.
	oA, _ := newOrch(t, t.TempDir(), 1, 4)
	jA, err := oA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	finA := waitDone(t, oA, jA.ID)
	if finA.State != StateDone {
		t.Fatalf("reference run: %s (%s)", finA.State, finA.Error)
	}
	var ref faultsim.Result
	if err := json.Unmarshal(finA.Result, &ref); err != nil {
		t.Fatal(err)
	}
	if !ref.Weighted || ref.FailWeight <= 0 {
		t.Fatalf("reference run carries no weighted signal: %+v", ref)
	}

	// Interrupted run: the orchestrator is closed while its campaign
	// blocks after the third committed chunk.
	dirB, _ := interruptAfterChunks(t, spec, 3)

	// Fresh orchestrator, same store: resume and compare byte-for-byte.
	oB2, _ := newOrch(t, dirB, 1, 4)
	if n := oB2.Recover(); n != 1 {
		t.Fatalf("Recover = %d, want 1", n)
	}
	list := oB2.List()
	if len(list) != 1 || !list[0].Resumed {
		t.Fatalf("recovered orchestrator state wrong: %+v", list)
	}
	finB := waitDone(t, oB2, list[0].ID)
	if finB.State != StateDone {
		t.Fatalf("resumed run: %s (%s)", finB.State, finB.Error)
	}
	if !bytes.Equal(finA.Result, finB.Result) {
		t.Errorf("resumed weighted result differs from uninterrupted run:\nA: %.300s\nB: %.300s",
			finA.Result, finB.Result)
	}
}
