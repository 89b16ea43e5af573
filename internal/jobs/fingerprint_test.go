package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestStreamVersionFingerprint runs one small fixed campaign per arrival
// model — Poisson at 1430 FIT and rowhammer — and hashes their results.
// Results cached under a stream version are served for its specs, so a
// change to the engine's draws that keeps streamVersion would serve
// stale results: the hash must match the one recorded beside it.
func TestStreamVersionFingerprint(t *testing.T) {
	h := sha256.New()
	for _, model := range []string{"", "rowhammer"} {
		spec := Spec{Reliability: &ReliabilitySpec{
			Scheme: "3DP", Trials: 1000, CheckpointTrials: 1000, Workers: 1,
			Seed: 7, TSVFIT: 1430, FaultModel: model,
		}}.Normalize()
		res, err := RunChunk(context.Background(), spec.Reliability, 0, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failures == 0 {
			t.Fatalf("model %q: no failures, so the hash would not see the draws", model)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != streamFingerprint {
		t.Fatalf("seeded results changed: bump streamVersion and re-record the goldens (fingerprint %s, recorded %s)",
			got, streamFingerprint)
	}
}
