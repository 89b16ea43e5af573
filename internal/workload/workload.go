// Package workload provides synthetic stand-ins for the paper's evaluation
// workloads: all 29 SPEC CPU2006 benchmarks, seven memory-intensive PARSEC
// benchmarks, and two BioBench benchmarks (paper §III-B), executed in rate
// mode on eight cores.
//
// Real traces are not redistributable, so each benchmark is summarized by a
// profile — LLC misses per kilo-instruction, writeback intensity, row-buffer
// locality, memory-level parallelism, and footprint — with values drawn from
// published characterizations. A deterministic generator expands a profile
// into a synthetic stream of memory requests with the profiled statistics;
// the performance model consumes the stream, so the *relative* behaviour
// across benchmarks and striping layouts is preserved even though absolute
// IPC is not meant to match any particular machine.
package workload

import (
	"fmt"
	"math/rand"
)

// Suite identifies the benchmark suite.
type Suite int

const (
	// SPECFP is SPEC CPU2006 floating point.
	SPECFP Suite = iota
	// SPECINT is SPEC CPU2006 integer.
	SPECINT
	// PARSEC is the PARSEC multithreaded suite.
	PARSEC
	// BIOBENCH is the BioBench bioinformatics suite.
	BIOBENCH
)

// String names the suite as the paper's figures do.
func (s Suite) String() string {
	switch s {
	case SPECFP:
		return "SPEC-FP"
	case SPECINT:
		return "SPEC-INT"
	case PARSEC:
		return "PARSEC"
	case BIOBENCH:
		return "BIOBENCH"
	default:
		return fmt.Sprintf("Suite(%d)", int(s))
	}
}

// Profile summarizes one benchmark's memory behaviour.
type Profile struct {
	Name  string
	Suite Suite
	// MPKI is LLC read misses per kilo-instruction (per core).
	MPKI float64
	// WBPKI is LLC dirty writebacks per kilo-instruction (per core).
	WBPKI float64
	// RowHit is the probability a request hits the currently open row of
	// its bank under the Same-Bank mapping.
	RowHit float64
	// MLP is the average number of overlapping outstanding misses.
	MLP float64
	// CPI0 is the core CPI excluding memory stalls.
	CPI0 float64
	// FootprintLines is the number of distinct cache lines the synthetic
	// stream draws from.
	FootprintLines int
}

// Validate reports whether the profile's parameters are usable.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile needs a name")
	case p.MPKI <= 0:
		return fmt.Errorf("workload: %s: MPKI must be positive", p.Name)
	case p.WBPKI < 0:
		return fmt.Errorf("workload: %s: WBPKI must be non-negative", p.Name)
	case p.RowHit < 0 || p.RowHit > 1:
		return fmt.Errorf("workload: %s: RowHit must be in [0,1]", p.Name)
	case p.MLP < 1:
		return fmt.Errorf("workload: %s: MLP must be >= 1", p.Name)
	case p.CPI0 <= 0:
		return fmt.Errorf("workload: %s: CPI0 must be positive", p.Name)
	case p.FootprintLines < LinesPerRowGroup:
		return fmt.Errorf("workload: %s: footprint below one row group", p.Name)
	}
	return nil
}

// WriteFraction returns the fraction of memory requests that are
// writebacks.
func (p Profile) WriteFraction() float64 {
	total := p.MPKI + p.WBPKI
	if total == 0 {
		return 0
	}
	return p.WBPKI / total
}

// Profiles returns all 38 benchmark profiles in the paper's Figure-15
// presentation order (least to most memory-intensive within groups).
// MPKI/row-locality values follow published SPEC CPU2006 / PARSEC / BioBench
// characterizations at 8 MB LLC.
func Profiles() []Profile {
	mk := func(name string, suite Suite, mpki, wbpki, rowHit, mlp, cpi0 float64, foot int) Profile {
		return Profile{Name: name, Suite: suite, MPKI: mpki, WBPKI: wbpki,
			RowHit: rowHit, MLP: mlp, CPI0: cpi0, FootprintLines: foot}
	}
	return []Profile{
		// SPEC CPU2006 — compute-bound end.
		mk("dealII", SPECFP, 0.5, 0.2, 0.70, 1.5, 0.8, 1<<16),
		mk("gobmk", SPECINT, 0.6, 0.2, 0.55, 1.3, 0.9, 1<<16),
		mk("sjeng", SPECINT, 0.4, 0.1, 0.50, 1.2, 0.9, 1<<16),
		mk("povray", SPECFP, 0.1, 0.03, 0.65, 1.2, 0.8, 1<<14),
		mk("soplex", SPECFP, 8.0, 2.5, 0.65, 2.5, 0.7, 1<<19),
		mk("bwaves", SPECFP, 10.0, 3.0, 0.80, 3.5, 0.6, 1<<20),
		mk("sphinx3", SPECFP, 7.0, 1.0, 0.70, 2.0, 0.7, 1<<19),
		mk("wrf", SPECFP, 5.0, 1.5, 0.75, 2.2, 0.7, 1<<19),
		mk("zeusmp", SPECFP, 4.0, 1.5, 0.70, 2.0, 0.7, 1<<19),
		mk("bzip2", SPECINT, 2.5, 1.0, 0.55, 1.8, 0.8, 1<<18),
		mk("xalancbmk", SPECINT, 2.0, 0.5, 0.45, 1.6, 0.9, 1<<18),
		mk("hmmer", SPECINT, 0.8, 0.3, 0.70, 1.5, 0.7, 1<<16),
		mk("perlbench", SPECINT, 0.8, 0.3, 0.55, 1.4, 0.8, 1<<17),
		mk("h264ref", SPECINT, 0.7, 0.2, 0.70, 1.5, 0.7, 1<<16),
		mk("astar", SPECINT, 3.0, 0.8, 0.45, 1.4, 0.9, 1<<18),
		mk("gromacs", SPECFP, 0.7, 0.2, 0.65, 1.5, 0.7, 1<<16),
		mk("tonto", SPECFP, 0.5, 0.2, 0.65, 1.5, 0.8, 1<<16),
		mk("namd", SPECFP, 0.3, 0.1, 0.70, 1.6, 0.7, 1<<16),
		mk("calculix", SPECFP, 0.5, 0.15, 0.70, 1.6, 0.7, 1<<16),
		mk("gamess", SPECFP, 0.1, 0.03, 0.70, 1.4, 0.8, 1<<14),
		// SPEC CPU2006 — memory-bound end (right side of Figure 15).
		mk("CactusADM", SPECFP, 6.0, 2.5, 0.60, 1.8, 0.8, 1<<19),
		mk("mcf", SPECINT, 30.0, 8.0, 0.30, 4.0, 1.0, 1<<21),
		mk("lbm", SPECFP, 28.0, 13.0, 0.85, 5.0, 0.6, 1<<21),
		mk("milc", SPECFP, 22.0, 7.0, 0.65, 3.5, 0.7, 1<<20),
		mk("libquantum", SPECINT, 25.0, 6.0, 0.90, 5.0, 0.6, 1<<20),
		mk("omnetpp", SPECINT, 18.0, 5.0, 0.35, 2.5, 0.9, 1<<20),
		mk("gcc", SPECINT, 12.0, 5.0, 0.50, 2.5, 0.8, 1<<19),
		mk("leslie3d", SPECFP, 16.0, 6.0, 0.75, 3.5, 0.6, 1<<20),
		mk("GemsFDTD", SPECFP, 24.0, 10.0, 0.70, 3.0, 0.6, 1<<21),
		// PARSEC (memory-intensive subset used by the paper).
		mk("black", PARSEC, 1.0, 0.3, 0.65, 1.8, 0.8, 1<<17),
		mk("face", PARSEC, 3.0, 1.0, 0.70, 2.2, 0.7, 1<<18),
		mk("ferret", PARSEC, 4.5, 1.2, 0.60, 2.2, 0.8, 1<<18),
		mk("fluid", PARSEC, 3.0, 1.2, 0.70, 2.2, 0.7, 1<<18),
		mk("freq", PARSEC, 2.0, 0.6, 0.55, 1.8, 0.8, 1<<18),
		mk("stream", PARSEC, 10.0, 4.0, 0.85, 4.0, 0.6, 1<<20),
		mk("swapt", PARSEC, 1.2, 0.4, 0.60, 1.8, 0.8, 1<<17),
		// BioBench: read-dominated scans with sparse writes (paper §VI-C).
		mk("mummer", BIOBENCH, 14.0, 1.0, 0.75, 3.0, 0.7, 1<<20),
		mk("tigr", BIOBENCH, 10.0, 0.7, 0.75, 3.0, 0.7, 1<<20),
	}
}

// ByName returns the profile with the given name.
func ByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// BySuite returns all profiles of one suite.
func BySuite(s Suite) []Profile {
	var out []Profile
	for _, p := range Profiles() {
		if p.Suite == s {
			out = append(out, p)
		}
	}
	return out
}

// Suites lists the suites in presentation order.
func Suites() []Suite { return []Suite{SPECFP, SPECINT, PARSEC, BIOBENCH} }

// Request is one memory request below the LLC.
type Request struct {
	// LineAddr is the line-granularity address (line index, not bytes).
	LineAddr uint64
	// Write marks a writeback; reads are demand misses.
	Write bool
	// Core is the issuing core (rate mode: all cores run the same
	// benchmark over disjoint address ranges).
	Core int
	// ICount is the per-core instruction count at which the request
	// issues.
	ICount uint64
}

// Generator produces a deterministic synthetic request stream realizing a
// profile's statistics.
type Generator struct {
	cores int
	rng   *rand.Rand
	// core is the core issuing the next request.
	core int

	// Per-profile constants, computed once: the instruction gap between
	// a core's requests, the number of virtual row groups, and the
	// probabilities of a row-buffer hit and of a write.
	gap           uint64
	rowGroups     int64
	rowHit, write float64

	// Shared pattern history: in rate mode all cores execute the same
	// program, so they touch the same virtual row groups and slots — but
	// drift apart by scheduling noise. Core c replays the shared pattern
	// sequence LagRounds*c rounds behind core 0. Round r's pattern lives
	// in history[r&mask]; the ring is a power of two at least as long as
	// the deepest lag, so no replayed round is overwritten early.
	history []pattern
	mask    uint64
	round   uint64

	// Per-core instruction counters.
	icount []uint64
}

// pattern is one round's shared virtual access.
type pattern struct {
	rg    uint64
	slot  uint64
	write bool
}

// LagRounds is the per-core phase drift between rate-mode copies, in
// rounds. Copies of the same program reach the same access thousands of
// instructions apart rather than simultaneously.
const LagRounds = 61

// LinesPerRowGroup is the number of consecutive lines treated as one DRAM
// row for locality synthesis (2 KB rows / 64 B lines).
const LinesPerRowGroup = 32

// NewGenerator builds a generator for the profile running in rate mode on
// the given number of cores.
func NewGenerator(prof Profile, cores int, seed int64) *Generator {
	rowGroups := int64(prof.FootprintLines / LinesPerRowGroup)
	if rowGroups == 0 {
		rowGroups = 1
	}
	perK := prof.MPKI + prof.WBPKI
	ring := 1
	for ring < LagRounds*(cores-1)+1 {
		ring <<= 1
	}
	return &Generator{
		cores:     cores,
		rng:       rand.New(rand.NewSource(seed)),
		gap:       uint64(1000/perK + 0.5),
		rowGroups: rowGroups,
		rowHit:    prof.RowHit,
		write:     prof.WriteFraction(),
		history:   make([]pattern, ring),
		mask:      uint64(ring - 1),
		icount:    make([]uint64, cores),
	}
}

// Next produces the next request. Cores proceed round-robin in lockstep
// rounds: once per round the shared virtual pattern advances (row-group
// choice, slot, read/write), and each core in the round issues that pattern
// at its own physical location — the per-core index lands in the low
// row-group bits so that, under a channel-interleaved physical mapping, the
// copies fall into different channels at the same (bank, row) coordinates,
// exactly like first-touch allocation of identical rate-mode processes.
func (g *Generator) Next() Request {
	core := g.core
	if g.core++; g.core == g.cores {
		g.core = 0
	}
	if core == 0 {
		// Advance the shared pattern once per round, from the last one.
		var pat pattern
		if g.round > 0 {
			pat = g.history[(g.round-1)&g.mask]
		}
		if g.rng.Float64() >= g.rowHit {
			pat.rg = uint64(g.rng.Int63n(g.rowGroups))
		}
		pat.slot = uint64(g.rng.Intn(LinesPerRowGroup))
		pat.write = g.rng.Float64() < g.write
		g.history[g.round&g.mask] = pat
		g.round++
	}
	g.icount[core] += g.gap
	// Core c replays the pattern from LagRounds*c rounds ago, or the
	// first round's while that lies before the start.
	var r uint64
	if lag := uint64(LagRounds * core); g.round > lag {
		r = g.round - 1 - lag
	}
	pat := g.history[r&g.mask]
	physRG := pat.rg*uint64(g.cores) + uint64(core)
	line := physRG*LinesPerRowGroup + pat.slot
	return Request{LineAddr: line, Write: pat.write, Core: core, ICount: g.icount[core]}
}

// Stream produces n requests.
func (g *Generator) Stream(n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
