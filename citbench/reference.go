package main

// Reference failure counts for the Citadel sweep cells. Each cell's 95%
// Wilson interval over a run must overlap the interval of its reference.
const (
	// Fig. 18/19 at Table-I rates (EXPERIMENTS.md "Headline numbers"):
	// 3DP+DDS and Citadel, 1 failure in 200k trials. With no TSV faults
	// TSV-SWAP has nothing to do, so the two schemes coincide.
	refTable1Failures = 1
	refTable1Trials   = 200000
	// Citadel at 1430 FIT with TSV-SWAP (EXPERIMENTS.md "Adaptive run"):
	// 3 failures in 2M trials.
	refTSV1430Failures = 3
	refTSV1430Trials   = 2000000
	// Citadel under the rowhammer fault model (breakthroughProb=1e-7,
	// Table-I rates with 1430 FIT TSVs) has no published value. This is a
	// long reference run through citadel.SimulateScenarioReliabilityContext
	// with Trials=1000000, Seed=20141213, Workers=2; its seed is outside
	// the streams the benchmark derives from --seed.
	refRowhammerFailures = 311
	refRowhammerTrials   = 1000000
)
