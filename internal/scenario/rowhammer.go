package scenario

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/stack"
)

// The rowhammer fault model replaces FIT-rate Poisson arrivals with an
// activation-count-driven process: a workload repeatedly activates a
// small set of aggressor rows in one hot bank, and whenever an
// aggressor's accumulated activation count crosses the disturbance
// threshold, a breakthrough episode flips bits in the physically
// adjacent victim rows. Arrivals are therefore spatially correlated
// (victims cluster around the aggressors of one bank) and temporally
// clustered (episodes recur at the threshold-crossing cadence), unlike
// the memoryless, uniformly-placed Table-I faults.
//
// Per trial, the model draws one hot (stack, data die, bank) and a base
// row, lays out `aggressors` aggressor rows `aggressorStride` apart, and
// gives each a lognormally-jittered activation rate that decays with its
// rank in the access distribution. An aggressor's expected time between
// breakthrough episodes is threshold / (rate * breakthroughProb); each
// episode emits Row-class faults in 1..victimRows adjacent victim rows,
// each independently permanent with victimPermanentProb. An optional
// Poisson baseline (baselinePoisson=1) layers the standard FIT-rate
// process underneath, so rowhammer damage composes with ambient faults.
//
// All randomness comes from the per-worker rng the engine hands to
// AppendLifetime, so results stay a pure function of (seed, workers,
// chunk layout). Episode counters flush into Result.ScenarioStats via
// the ArrivalStats interface.

const rowhammerModelName = "rowhammer"

// Defaults: a ~3.6e8 activations/hour hammer (100K row activations/s)
// against a 100K-activation threshold with a per-crossing breakthrough
// probability of 1.25e-9 yields an expected episode spacing of ~222Kh
// for the hottest aggressor — a few tenths of an episode per 7-year
// lifetime per trial, comparable to the Table-I large-granularity rates.
const (
	defaultAggressors       = 4
	defaultActsPerHour      = 3.6e8
	defaultHammerThreshold  = 1e5
	defaultBreakthroughProb = 1.25e-9
	defaultVictimRows       = 2
	defaultVictimPermProb   = 0.05
	defaultAggressorStride  = 2
	defaultRateSigma        = 0.5
	defaultBaselinePoisson  = 1

	// maxHammerFaults caps the per-trial fault count so a hostile
	// parameter choice (huge rate, tiny threshold) degrades to a bounded
	// worst case instead of an unbounded allocation.
	maxHammerFaults = 512
)

func init() {
	RegisterFaultModel(FaultModel{
		Name:        rowhammerModelName,
		Description: "activation-driven rowhammer episodes: spatially correlated victim-row faults around hot aggressor rows",
		Params: []ParamDoc{
			{Name: "aggressors", Default: defaultAggressors,
				Doc: "number of aggressor rows hammered in the hot bank"},
			{Name: "hammerActsPerHour", Default: defaultActsPerHour,
				Doc: "activation rate of the hottest aggressor, activations per hour"},
			{Name: "hammerThreshold", Default: defaultHammerThreshold,
				Doc: "activation count per disturbance-threshold crossing"},
			{Name: "breakthroughProb", Default: defaultBreakthroughProb,
				Doc: "probability a threshold crossing breaks through to flip victim bits"},
			{Name: "victimRows", Default: defaultVictimRows,
				Doc: "maximum adjacent victim rows corrupted per episode"},
			{Name: "victimPermanentProb", Default: defaultVictimPermProb,
				Doc: "probability a victim-row fault is permanent rather than transient"},
			{Name: "aggressorStride", Default: defaultAggressorStride,
				Doc: "row spacing between successive aggressor rows"},
			{Name: "rateSigma", Default: defaultRateSigma,
				Doc: "lognormal sigma of per-aggressor activation-rate jitter"},
			{Name: "baselinePoisson", Default: defaultBaselinePoisson,
				Doc: "1 to layer the standard Poisson FIT-rate process underneath, 0 for hammer-only arrivals"},
		},
		Build: func(cfg stack.Config, rates fault.Rates, p Params) (func() faultsim.Arrivals, error) {
			rh := rowhammerParams{
				aggressors:       int(p.Get("aggressors", defaultAggressors)),
				actsPerHour:      p.Get("hammerActsPerHour", defaultActsPerHour),
				threshold:        p.Get("hammerThreshold", defaultHammerThreshold),
				breakthroughProb: p.Get("breakthroughProb", defaultBreakthroughProb),
				victimRows:       int(p.Get("victimRows", defaultVictimRows)),
				victimPermProb:   p.Get("victimPermanentProb", defaultVictimPermProb),
				stride:           int(p.Get("aggressorStride", defaultAggressorStride)),
				rateSigma:        p.Get("rateSigma", defaultRateSigma),
				baseline:         p.Get("baselinePoisson", defaultBaselinePoisson) != 0,
			}
			if err := rh.validate(cfg); err != nil {
				return nil, err
			}
			return func() faultsim.Arrivals {
				src := &rowhammerArrivals{cfg: cfg, p: rh}
				if rh.baseline {
					src.base = fault.NewSampler(cfg, rates)
				}
				return src
			}, nil
		},
	})
}

type rowhammerParams struct {
	aggressors       int
	actsPerHour      float64
	threshold        float64
	breakthroughProb float64
	victimRows       int
	victimPermProb   float64
	stride           int
	rateSigma        float64
	baseline         bool
}

func (p rowhammerParams) validate(cfg stack.Config) error {
	switch {
	case p.aggressors < 1:
		return fmt.Errorf("scenario: %s needs aggressors >= 1, got %d", rowhammerModelName, p.aggressors)
	case p.actsPerHour <= 0:
		return fmt.Errorf("scenario: %s needs hammerActsPerHour > 0", rowhammerModelName)
	case p.threshold <= 0:
		return fmt.Errorf("scenario: %s needs hammerThreshold > 0", rowhammerModelName)
	case p.breakthroughProb <= 0 || p.breakthroughProb > 1:
		return fmt.Errorf("scenario: %s needs breakthroughProb in (0, 1]", rowhammerModelName)
	case p.victimRows < 1:
		return fmt.Errorf("scenario: %s needs victimRows >= 1, got %d", rowhammerModelName, p.victimRows)
	case p.victimPermProb < 0 || p.victimPermProb > 1:
		return fmt.Errorf("scenario: %s needs victimPermanentProb in [0, 1]", rowhammerModelName)
	case p.stride < 1:
		return fmt.Errorf("scenario: %s needs aggressorStride >= 1, got %d", rowhammerModelName, p.stride)
	case p.rateSigma < 0:
		return fmt.Errorf("scenario: %s needs rateSigma >= 0", rowhammerModelName)
	case cfg.RowsPerBank < 4:
		return fmt.Errorf("scenario: %s needs at least 4 rows per bank, got %d", rowhammerModelName, cfg.RowsPerBank)
	}
	return nil
}

// rowhammerArrivals is one worker's arrival source. It is stateful only
// for its episode counters (flushed via ArrivalStats) and scratch
// buffers; the fault stream itself is a pure function of the rng
// sequence.
type rowhammerArrivals struct {
	cfg  stack.Config
	p    rowhammerParams
	base *fault.Sampler

	trials     float64
	episodes   float64
	victims    float64
	permanents float64
	// histogram of episodes per trial: 0, 1-3, 4-15, 16+.
	epHist [4]float64

	// runs and scratch are per-trial buffers of the arrival merge: the
	// offset where each aggressor's episodes begin, and a fault copy.
	runs    []int
	scratch []fault.Fault
}

func (r *rowhammerArrivals) AppendLifetime(rng *rand.Rand, hours float64, dst []fault.Fault) []fault.Fault {
	start := len(dst)
	if r.base != nil {
		dst = r.base.AppendLifetime(rng, hours, dst)
	}

	// Hot location for this trial's hammering workload.
	stackIdx := rng.Intn(r.cfg.Stacks)
	die := uint32(rng.Intn(r.cfg.DataDies))
	bank := uint32(rng.Intn(r.cfg.BanksPerDie))
	baseRow := uint32(rng.Intn(r.cfg.RowsPerBank))

	trialEpisodes := 0
	capped := false
	r.runs = r.runs[:0]
	for a := 0; a < r.p.aggressors && !capped; a++ {
		r.runs = append(r.runs, len(dst)-start)
		aggRow := (baseRow + uint32(a*r.p.stride)) % uint32(r.cfg.RowsPerBank)
		// Rank-a aggressor is hammered ~1/(a+1) as often as the hottest,
		// with lognormal workload jitter.
		rate := r.p.actsPerHour / float64(a+1) * math.Exp(r.p.rateSigma*rng.NormFloat64())
		spacing := r.p.threshold / (rate * r.p.breakthroughProb)
		if spacing <= 0 || math.IsInf(spacing, 0) || math.IsNaN(spacing) {
			continue
		}
		for t := spacing * (0.5 + rng.Float64()); t < hours; t += spacing * (0.8 + 0.4*rng.Float64()) {
			// Hostile parameters (tiny threshold, prob 1) degrade to a
			// bounded trial, not an unbounded loop.
			if len(dst)-start >= maxHammerFaults {
				capped = true
				break
			}
			trialEpisodes++
			nv := 1 + rng.Intn(r.p.victimRows)
			for v := 0; v < nv && len(dst)-start < maxHammerFaults; v++ {
				// Victims alternate above/below the aggressor: +1, -1, +2, -2...
				off := int32(v/2 + 1)
				if v%2 == 1 {
					off = -off
				}
				vr := (int32(aggRow) + off + int32(r.cfg.RowsPerBank)) % int32(r.cfg.RowsPerBank)
				pers := fault.Transient
				if rng.Float64() < r.p.victimPermProb {
					pers = fault.Permanent
					r.permanents++
				}
				r.victims++
				dst = append(dst, fault.Fault{
					Class:       fault.Row,
					Persistence: pers,
					Hours:       t,
					Region: fault.Region{
						Stack: stackIdx,
						Die:   fault.ExactPattern(die),
						Bank:  fault.ExactPattern(bank),
						Row:   fault.ExactPattern(uint32(vr)),
						Col:   fault.AllPattern(),
					},
				})
			}
		}
	}

	r.trials++
	r.episodes += float64(trialEpisodes)
	switch {
	case trialEpisodes == 0:
		r.epHist[0]++
	case trialEpisodes <= 3:
		r.epHist[1]++
	case trialEpisodes <= 15:
		r.epHist[2]++
	default:
		r.epHist[3]++
	}

	// The engine requires arrivals sorted by Hours; hammer episodes
	// interleave arbitrarily with the baseline stream. Each source emits
	// in time order, so a stable merge of the sorted runs sorts the trial.
	r.scratch = mergeRuns(dst[start:], r.runs, r.scratch)
	return dst
}

// mergeRuns sorts region by Hours, stably, given that each of its runs —
// region[:starts[0]], region[starts[0]:starts[1]], ..., region[starts[n-1]:]
// — is already sorted. It folds each run into the sorted prefix before it
// with a two-way merge whose ties go to the prefix, so the result equals a
// stable sort's. It returns scratch, grown to hold the prefix, for reuse.
func mergeRuns(region []fault.Fault, starts []int, scratch []fault.Fault) []fault.Fault {
	for i, mid := range starts {
		end := len(region)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		if mid == 0 || mid == end || region[mid-1].Hours <= region[mid].Hours {
			continue
		}
		scratch = append(scratch[:0], region[:mid]...)
		l, r, out := 0, mid, 0
		for l < len(scratch) && r < end {
			if region[r].Hours < scratch[l].Hours {
				region[out] = region[r]
				r++
			} else {
				region[out] = scratch[l]
				l++
			}
			out++
		}
		copy(region[out:], scratch[l:])
	}
	return scratch
}

// FlushStats implements faultsim.ArrivalStats.
func (r *rowhammerArrivals) FlushStats(dst map[string]float64) {
	dst["hammerTrials"] += r.trials
	dst["hammerEpisodes"] += r.episodes
	dst["hammerVictimFaults"] += r.victims
	dst["hammerPermanentVictims"] += r.permanents
	dst["hammerTrialsEp0"] += r.epHist[0]
	dst["hammerTrialsEp1to3"] += r.epHist[1]
	dst["hammerTrialsEp4to15"] += r.epHist[2]
	dst["hammerTrialsEp16plus"] += r.epHist[3]
}
