package citadel

import (
	"errors"
	"fmt"

	"repro/internal/ecc"
	"repro/internal/faultsim"
)

// Forensic is a replayable post-mortem record of one uncorrectable trial:
// its run seed and trial index, the live fault set at failure, and a
// machine-readable reason chain naming the correction mechanisms that
// were defeated.
type Forensic = faultsim.Forensic

// Reason is one entry of a forensic reason chain.
type Reason = ecc.Reason

// ForensicsReport is the self-contained failure-forensics document written
// by `citadel-sim -forensics out.json` and replayed by
// `citadel-repro -forensics out.json`: it carries both the forensic records
// and every run parameter needed to reproduce them.
type ForensicsReport struct {
	RunID              string         `json:"runId,omitempty"`
	Scheme             string         `json:"scheme"`
	Seed               int64          `json:"seed"`
	Trials             int            `json:"trials"`
	LifetimeYears      float64        `json:"lifetimeYears"`
	ScrubIntervalHours float64        `json:"scrubIntervalHours"`
	TSVFIT             float64        `json:"tsvFit"`
	TSVSwap            bool           `json:"tsvSwap"`
	Failures           int            `json:"failures"`
	Breakdown          map[string]int `json:"breakdown,omitempty"`
	Exemplars          []Forensic     `json:"exemplars,omitempty"`
}

// NewForensicsReport assembles the report for a completed forensics run
// of the named scheme. A report records neither the fault model, the
// scenario parameters nor any rate but the TSV FIT, so it refuses runs
// whose exemplars it could not replay: an unknown scheme, a non-default
// fault model, any ScenarioParams, or rates other than Table I's with a
// custom TSV FIT. Called with a zero Result before a run, it checks the
// options up front.
func NewForensicsReport(opts ReliabilityOptions, scheme string, res Result) (ForensicsReport, error) {
	opts = opts.withDefaults()
	if len(opts.ScenarioParams) > 0 {
		return ForensicsReport{}, fmt.Errorf("citadel: a forensics report does not record scenario parameters")
	}
	if opts.Rates != Table1Rates().WithTSV(opts.Rates.TSVPerDie) {
		return ForensicsReport{}, fmt.Errorf("citadel: a forensics report records only the TSV FIT; the other rates must be Table I's")
	}
	if _, _, err := opts.scenarioSetup(scheme, true); err != nil {
		return ForensicsReport{}, err
	}
	return ForensicsReport{
		RunID:              opts.RunID,
		Scheme:             scheme,
		Seed:               opts.Seed,
		Trials:             res.Trials,
		LifetimeYears:      opts.LifetimeYears,
		ScrubIntervalHours: opts.ScrubIntervalHours,
		TSVFIT:             opts.Rates.TSVPerDie,
		TSVSwap:            opts.TSVSwap,
		Failures:           res.Failures,
		Breakdown:          res.Breakdown,
		Exemplars:          res.Exemplars,
	}, nil
}

// Options reconstructs the reliability options a report's exemplars replay
// under. Geometry and non-TSV rates use the defaults; runs with custom
// geometry must rebuild ReliabilityOptions themselves.
func (r ForensicsReport) Options() ReliabilityOptions {
	rates := Table1Rates()
	rates.TSVPerDie = r.TSVFIT
	return ReliabilityOptions{
		Rates:              rates,
		Trials:             r.Trials,
		LifetimeYears:      r.LifetimeYears,
		ScrubIntervalHours: r.ScrubIntervalHours,
		TSVSwap:            r.TSVSwap,
		Seed:               r.Seed,
		RunID:              r.RunID,
	}.withDefaults()
}

// Replay is the outcome of replaying one exemplar of a report.
type Replay struct {
	// Got is the replayed record; zero when the trial did not fail.
	Got Forensic
	// Failed reports that the replayed trial failed at all.
	Failed bool
	// Err is nil when the replay reproduces the exemplar's faults, cause,
	// mode, failure time and reasons exactly, and names the first
	// difference otherwise.
	Err error
}

// ReplayReport replays every exemplar of a report once, under the
// report's options, and returns one Replay per exemplar, or the error
// resolving the report's scheme.
func ReplayReport(r ForensicsReport) ([]Replay, error) {
	pol, eo, err := r.Options().scenarioSetup(r.Scheme, true)
	if err != nil {
		return nil, err
	}
	out := make([]Replay, len(r.Exemplars))
	for i, ex := range r.Exemplars {
		rp := &out[i]
		rp.Got, rp.Failed = faultsim.ReplayForensic(eo, pol, ex)
		if rp.Failed {
			rp.Err = diffForensic(rp.Got, ex)
		} else {
			rp.Err = errors.New("the replayed trial did not fail")
		}
	}
	return out, nil
}

// VerifyReport replays every exemplar of a report and returns an error
// describing the first divergence (nil when all exemplars reproduce their
// recorded fault sets and verdicts exactly), or the error resolving the
// report's scheme.
func VerifyReport(r ForensicsReport) error {
	replays, err := ReplayReport(r)
	if err != nil {
		return err
	}
	for i, rp := range replays {
		switch {
		case !rp.Failed:
			return fmt.Errorf("exemplar %d (%s) did not reproduce a failure", i, r.Exemplars[i])
		case rp.Err != nil:
			return fmt.Errorf("exemplar %d diverges: %w", i, rp.Err)
		}
	}
	return nil
}

// diffForensic compares the replay-relevant fields of two records.
func diffForensic(got, want Forensic) error {
	if got.FailureHours != want.FailureHours || got.Cause != want.Cause || got.Mode != want.Mode {
		return fmt.Errorf("verdict differs: got (%.1fh %s %s), want (%.1fh %s %s)",
			got.FailureHours, got.Cause, got.Mode, want.FailureHours, want.Cause, want.Mode)
	}
	if len(got.Faults) != len(want.Faults) {
		return fmt.Errorf("fault count differs: got %d, want %d", len(got.Faults), len(want.Faults))
	}
	for i := range got.Faults {
		if got.Faults[i] != want.Faults[i] {
			return fmt.Errorf("fault %d differs: got %v, want %v", i, got.Faults[i], want.Faults[i])
		}
	}
	if len(got.Reasons) != len(want.Reasons) {
		return fmt.Errorf("reason count differs: got %v, want %v", got.Reasons, want.Reasons)
	}
	for i := range got.Reasons {
		if got.Reasons[i] != want.Reasons[i] {
			return fmt.Errorf("reason %d differs: got %v, want %v", i, got.Reasons[i], want.Reasons[i])
		}
	}
	return nil
}
