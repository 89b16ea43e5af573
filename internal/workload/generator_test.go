package workload

import (
	"math/rand"
	"testing"
)

// refGenerator is Generator as it stood before the ring buffer: the
// profile read on every call, the core taken as seq % cores, and the lag
// history kept as an append-and-reslice sliding window. It is the
// reference TestGeneratorMatchesReference holds Generator to.
type refGenerator struct {
	prof    Profile
	cores   int
	rng     *rand.Rand
	seq     uint64
	history []pattern
	round   uint64
	icount  []uint64
}

func newRefGenerator(prof Profile, cores int, seed int64) *refGenerator {
	return &refGenerator{
		prof:   prof,
		cores:  cores,
		rng:    rand.New(rand.NewSource(seed)),
		icount: make([]uint64, cores),
	}
}

func (g *refGenerator) Next() Request {
	core := int(g.seq % uint64(g.cores))
	g.seq++
	p := g.prof
	if core == 0 {
		var pat pattern
		if len(g.history) > 0 {
			pat = g.history[len(g.history)-1]
		}
		rowGroups := uint64(p.FootprintLines / LinesPerRowGroup)
		if rowGroups == 0 {
			rowGroups = 1
		}
		if g.rng.Float64() >= p.RowHit {
			pat.rg = uint64(g.rng.Int63n(int64(rowGroups)))
		}
		pat.slot = uint64(g.rng.Intn(LinesPerRowGroup))
		pat.write = g.rng.Float64() < p.WriteFraction()
		g.history = append(g.history, pat)
		maxLag := LagRounds*(g.cores-1) + 1
		if len(g.history) > maxLag {
			g.history = g.history[len(g.history)-maxLag:]
		}
		g.round++
	}
	perK := p.MPKI + p.WBPKI
	gap := uint64(1000/perK + 0.5)
	g.icount[core] += gap
	idx := len(g.history) - 1 - LagRounds*core
	if idx < 0 {
		idx = 0
	}
	pat := g.history[idx]
	physRG := pat.rg*uint64(g.cores) + uint64(core)
	line := physRG*LinesPerRowGroup + pat.slot
	return Request{LineAddr: line, Write: pat.write, Core: core, ICount: g.icount[core]}
}

// TestGeneratorMatchesReference runs Generator and the sliding-window
// reference side by side, well past the round where the deepest lag
// first reaches real history and the ring starts to wrap.
func TestGeneratorMatchesReference(t *testing.T) {
	tiny := Profile{Name: "tiny", MPKI: 3, WBPKI: 1, RowHit: 0.2, MLP: 1, CPI0: 1, FootprintLines: LinesPerRowGroup}
	profiles := append(Profiles(), tiny)
	for _, cores := range []int{1, 2, 3, 8} {
		rounds := 3 * (LagRounds*(cores-1) + 1)
		n := rounds*cores + cores/2
		for i, p := range profiles {
			seed := int64(100*cores + i)
			g, ref := NewGenerator(p, cores, seed), newRefGenerator(p, cores, seed)
			for k := 0; k < n; k++ {
				if got, want := g.Next(), ref.Next(); got != want {
					t.Fatalf("%s cores=%d: request %d = %+v, want %+v", p.Name, cores, k, got, want)
				}
			}
		}
	}
}

// requestSink keeps the benchmarked generator call from being optimized
// away.
var requestSink Request

// BenchmarkGeneratorNext measures synthetic request generation for an
// eight-core rate-mode run, as the timing model drives it.
func BenchmarkGeneratorNext(b *testing.B) {
	p, _ := ByName("mcf")
	g := NewGenerator(p, 8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requestSink = g.Next()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "requests/s")
}
