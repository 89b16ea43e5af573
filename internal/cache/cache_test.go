package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

func mustNew(t *testing.T, total, ways, line int) *Cache {
	t.Helper()
	c, err := New(total, ways, line)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 8, 64); err == nil {
		t.Error("accepted zero size")
	}
	if _, err := New(1000, 8, 64); err == nil {
		t.Error("accepted non-multiple size")
	}
	if _, err := New(64*24, 8, 64); err == nil {
		t.Error("accepted non-power-of-two sets")
	}
	if _, err := New(8<<20, 8, 64); err != nil {
		t.Errorf("rejected the Table II LLC config: %v", err)
	}
}

// TestNewRejectsFullWidthTags pins the tag-width limit: one set of 1-byte
// lines makes the tag the whole address, leaving no bit for the dirty
// flag; two sets (or 2-byte lines) free one.
func TestNewRejectsFullWidthTags(t *testing.T) {
	for _, g := range [][3]int{{1, 1, 1}, {4, 4, 1}} {
		if _, err := New(g[0], g[1], g[2]); err == nil {
			t.Errorf("accepted %v, whose tags need all 64 bits", g)
		}
	}
	for _, g := range [][3]int{{2, 1, 1}, {2, 1, 2}, {8, 4, 1}} {
		if _, err := New(g[0], g[1], g[2]); err != nil {
			t.Errorf("rejected %v: %v", g, err)
		}
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := mustNew(t, 1024, 2, 64)
	if r := c.Access(0, false); r.Hit {
		t.Error("cold access hit")
	}
	if r := c.Access(0, false); !r.Hit {
		t.Error("second access missed")
	}
	if c.HitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", c.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache, 8 sets: addresses mapping to set 0 are multiples of
	// 64*8=512.
	c := mustNew(t, 1024, 2, 64)
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU
	c.Access(d, false) // evicts b (LRU)
	if !c.Probe(a) {
		t.Error("a evicted despite being MRU")
	}
	if c.Probe(b) {
		t.Error("b not evicted despite being LRU")
	}
	if !c.Probe(d) {
		t.Error("d not resident after insert")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := mustNew(t, 1024, 2, 64)
	c.Access(0, true) // dirty
	c.Access(512, false)
	r := c.Access(1024, false) // evicts 0
	if !r.Writeback {
		t.Fatal("dirty eviction produced no writeback")
	}
	if r.WritebackAddr != 0 {
		t.Errorf("writeback addr = %d, want 0", r.WritebackAddr)
	}
	// Clean eviction: no writeback.
	c.Access(1536, false) // evicts 512 (clean)
	_, _, ev, wb := c.Stats()
	if ev != 2 || wb != 1 {
		t.Errorf("evictions=%d writebacks=%d, want 2,1", ev, wb)
	}
}

func TestProbeDoesNotDisturbLRU(t *testing.T) {
	c := mustNew(t, 1024, 2, 64)
	c.Access(0, false)
	c.Access(512, false)
	c.Probe(0)            // must NOT refresh 0
	c.Access(1024, false) // evicts 0 if probe did not refresh
	if c.Probe(0) {
		t.Error("probe refreshed LRU state")
	}
}

func TestWorkingSetSmallerThanCacheAlwaysHits(t *testing.T) {
	c := mustNew(t, 64*1024, 8, 64)
	rng := rand.New(rand.NewSource(5))
	// 512 distinct lines in a 1024-line cache.
	addrs := make([]uint64, 512)
	for i := range addrs {
		addrs[i] = uint64(i) * 64
	}
	for _, a := range addrs {
		c.Access(a, false)
	}
	before, _, _, _ := c.Stats()
	_ = before
	hitsBefore, missesBefore, _, _ := c.Stats()
	for i := 0; i < 10000; i++ {
		c.Access(addrs[rng.Intn(len(addrs))], false)
	}
	hits, misses, _, _ := c.Stats()
	if misses != missesBefore {
		t.Errorf("resident working set missed: %d new misses", misses-missesBefore)
	}
	if hits-hitsBefore != 10000 {
		t.Errorf("hits = %d, want 10000", hits-hitsBefore)
	}
}

func TestReset(t *testing.T) {
	c := mustNew(t, 1024, 2, 64)
	c.Access(0, true)
	c.Reset()
	if c.Probe(0) {
		t.Error("contents survived reset")
	}
	h, m, e, w := c.Stats()
	if h+m+e+w != 0 {
		t.Error("counters survived reset")
	}
}

func TestAccessors(t *testing.T) {
	c := mustNew(t, 8<<20, 8, 64)
	if c.Ways() != 8 || c.LineBytes() != 64 {
		t.Error("accessors wrong")
	}
	if c.Sets() != (8<<20)/64/8 {
		t.Errorf("Sets = %d", c.Sets())
	}
	if c.HitRate() != 0 {
		t.Error("empty cache hit rate should be 0")
	}
}

// refCache is the original per-set slice implementation, kept as the
// reference model for the packed one.
type refCache struct {
	sets, ways, lineBytes int

	tags  [][]uint64
	valid [][]bool
	dirty [][]bool
	lru   [][]uint64
	clock uint64

	hits, misses, evictions, writebacks uint64
}

func newRef(totalBytes, ways, lineBytes int) *refCache {
	sets := totalBytes / lineBytes / ways
	c := &refCache{sets: sets, ways: ways, lineBytes: lineBytes}
	c.tags = make([][]uint64, sets)
	c.valid = make([][]bool, sets)
	c.dirty = make([][]bool, sets)
	c.lru = make([][]uint64, sets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, ways)
		c.valid[i] = make([]bool, ways)
		c.dirty[i] = make([]bool, ways)
		c.lru[i] = make([]uint64, ways)
	}
	return c
}

func (c *refCache) index(addr uint64) (int, uint64) {
	line := addr / uint64(c.lineBytes)
	return int(line % uint64(c.sets)), line / uint64(c.sets)
}

func (c *refCache) Access(addr uint64, write bool) Result {
	c.clock++
	set, tag := c.index(addr)
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.tags[set][w] == tag {
			c.hits++
			c.lru[set][w] = c.clock
			if write {
				c.dirty[set][w] = true
			}
			return Result{Hit: true}
		}
	}
	c.misses++
	victim := -1
	var oldest uint64 = ^uint64(0)
	for w := 0; w < c.ways; w++ {
		if !c.valid[set][w] {
			victim = w
			break
		}
		if c.lru[set][w] < oldest {
			oldest = c.lru[set][w]
			victim = w
		}
	}
	res := Result{}
	if c.valid[set][victim] {
		c.evictions++
		if c.dirty[set][victim] {
			c.writebacks++
			res.Writeback = true
			res.WritebackAddr = (c.tags[set][victim]*uint64(c.sets) + uint64(set)) * uint64(c.lineBytes)
		}
	}
	c.valid[set][victim] = true
	c.tags[set][victim] = tag
	c.dirty[set][victim] = write
	c.lru[set][victim] = c.clock
	return res
}

func (c *refCache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.tags[set][w] == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Reset() {
	for i := range c.tags {
		for w := 0; w < c.ways; w++ {
			c.valid[i][w] = false
			c.dirty[i][w] = false
			c.lru[i][w] = 0
		}
	}
	c.clock, c.hits, c.misses, c.evictions, c.writebacks = 0, 0, 0, 0, 0
}

// TestMatchesReferenceModel drives the packed cache and the reference
// model through the same random streams of reads, writes, probes and
// resets over several geometries — direct-mapped, fully associative,
// 1-byte lines at the tag-width limit — and requires identical results,
// counters and hit rates at every step. Addresses mix a few contended
// sets (hits, evictions, dirty writebacks) with their mirror images at
// the top of the address space, where tags are widest.
func TestMatchesReferenceModel(t *testing.T) {
	geometries := [][3]int{
		{1024, 2, 64},
		{64 * 1024, 8, 64},
		{4096, 1, 64},     // direct-mapped
		{2048, 32, 64},    // one set, fully associative
		{8, 4, 1},         // two sets of 1-byte lines: 63-bit tags
		{2, 1, 2},         // one set of 2-byte lines: 63-bit tags
		{12, 4, 3},        // one set of odd-sized lines: the writeback address keeps a stray tag bit
		{3 * 256, 3, 64},  // non-power-of-two ways
		{8 << 20, 16, 64}, // a wide LLC
	}
	for _, g := range geometries {
		t.Run(fmt.Sprintf("%dB-%dway-%dB", g[0], g[1], g[2]), func(t *testing.T) {
			c := mustNew(t, g[0], g[1], g[2])
			ref := newRef(g[0], g[1], g[2])
			rng := rand.New(rand.NewSource(int64(g[0] + g[1] + g[2])))
			// Hot lines: up to 64 sets, each contended by three times as
			// many tags as it has ways.
			sets, lineBytes := uint64(c.Sets()), uint64(g[2])
			hotSets, hotTags := min(sets, 64), uint64(3*g[1])
			writebacks := 0
			for step := 0; step < 40000; step++ {
				addr := ((rng.Uint64()%hotTags)*sets+rng.Uint64()%hotSets)*lineBytes + rng.Uint64()%lineBytes
				switch rng.Intn(8) {
				case 0:
					addr = ^addr
				case 1:
					addr = rng.Uint64()
				}
				switch op := rng.Intn(10000); {
				case op < 3:
					c.Reset()
					ref.Reset()
				case op < 2000:
					if got, want := c.Probe(addr), ref.Probe(addr); got != want {
						t.Fatalf("step %d: Probe(%#x) = %v, reference %v", step, addr, got, want)
					}
				default:
					write := op < 5500
					got, want := c.Access(addr, write), ref.Access(addr, write)
					if got != want {
						t.Fatalf("step %d: Access(%#x, %v) = %+v, reference %+v", step, addr, write, got, want)
					}
					if got.Writeback {
						writebacks++
					}
				}
				h, m, e, w := c.Stats()
				if h != ref.hits || m != ref.misses || e != ref.evictions || w != ref.writebacks {
					t.Fatalf("step %d: stats %d/%d/%d/%d, reference %d/%d/%d/%d",
						step, h, m, e, w, ref.hits, ref.misses, ref.evictions, ref.writebacks)
				}
				refRate := 0.0
				if ref.hits+ref.misses > 0 {
					refRate = float64(ref.hits) / float64(ref.hits+ref.misses)
				}
				if c.HitRate() != refRate {
					t.Fatalf("step %d: hit rate %v, reference %v", step, c.HitRate(), refRate)
				}
			}
			if writebacks < 100 {
				t.Errorf("stream produced %d writebacks; the test exercises too little", writebacks)
			}
		})
	}
}

// compareRef performs one access or probe on both models and fails on any
// difference in the result or the counters.
func compareRef(t *testing.T, step int, c *Cache, ref *refCache, addr uint64, probe, write bool) {
	t.Helper()
	if probe {
		if got, want := c.Probe(addr), ref.Probe(addr); got != want {
			t.Fatalf("step %d: Probe(%#x) = %v, reference %v", step, addr, got, want)
		}
		return
	}
	if got, want := c.Access(addr, write), ref.Access(addr, write); got != want {
		t.Fatalf("step %d: Access(%#x, %v) = %+v, reference %+v", step, addr, write, got, want)
	}
	h, m, e, w := c.Stats()
	if h != ref.hits || m != ref.misses || e != ref.evictions || w != ref.writebacks {
		t.Fatalf("step %d: stats %d/%d/%d/%d, reference %d/%d/%d/%d",
			step, h, m, e, w, ref.hits, ref.misses, ref.evictions, ref.writebacks)
	}
}

// TestMatchesReferenceWideSet drives one fully associative 64-way set,
// where a hit can sit at any of 64 recency positions, against the
// reference model with 192 contending tags.
func TestMatchesReferenceWideSet(t *testing.T) {
	const ways, lineBytes = 64, 64
	c := mustNew(t, ways*lineBytes, ways, lineBytes)
	ref := newRef(ways*lineBytes, ways, lineBytes)
	rng := rand.New(rand.NewSource(64))
	for step := 0; step < 40000; step++ {
		addr := rng.Uint64()%(3*ways)*lineBytes + rng.Uint64()%lineBytes
		compareRef(t, step, c, ref, addr, rng.Intn(5) == 0, rng.Intn(2) == 0)
	}
	if _, _, _, wb := c.Stats(); wb < 100 {
		t.Errorf("stream produced %d writebacks; the test exercises too little", wb)
	}
}

// TestMatchesReferenceAcrossPartialResets resets the cache every few
// hundred accesses, long before its sets fill, so fills restart from
// partly filled sets whose stale tags must stay invisible to Access and
// Probe.
func TestMatchesReferenceAcrossPartialResets(t *testing.T) {
	const total, ways, lineBytes = 64 * 1024, 8, 64
	c := mustNew(t, total, ways, lineBytes)
	ref := newRef(total, ways, lineBytes)
	rng := rand.New(rand.NewSource(7))
	sets := uint64(c.Sets())
	for step := 0; step < 40000; step++ {
		if step%300 == 299 {
			c.Reset()
			ref.Reset()
		}
		// 16 sets, each contended by 24 tags: a few hundred accesses put
		// between one and ways lines in each.
		addr := (rng.Uint64()%24*sets + rng.Uint64()%16) * lineBytes
		compareRef(t, step, c, ref, addr, rng.Intn(4) == 0, rng.Intn(2) == 0)
	}
}

// TestAccessNoAlloc pins the zero-allocation access path for a hit, a
// clean miss and a miss that evicts a dirty line.
func TestAccessNoAlloc(t *testing.T) {
	c := mustNew(t, 1024, 2, 64)
	stride := uint64(c.Sets() * c.LineBytes()) // same set, next tag
	// Three tags cycling through one 2-way set miss on every access, and
	// evict once the set is full (AllocsPerRun warms up with one call).
	var k uint64
	cycle := func(set uint64, write bool) func() Result {
		return func() Result {
			k++
			return c.Access(k%3*stride+set*64, write)
		}
	}
	for _, tc := range []struct {
		name           string
		op             func() Result
		hit, writeback bool
	}{
		{"hit", func() Result { return c.Access(0, false) }, true, false},
		{"clean miss", cycle(1, false), false, false},
		{"dirty eviction", cycle(2, true), false, true},
	} {
		var got Result
		if allocs := testing.AllocsPerRun(100, func() { got = tc.op() }); allocs != 0 {
			t.Errorf("%s: %v allocs per access, want 0", tc.name, allocs)
		}
		if got.Hit != tc.hit || got.Writeback != tc.writeback {
			t.Errorf("%s: last access %+v, want hit=%v writeback=%v", tc.name, got, tc.hit, tc.writeback)
		}
	}
}

// perfsimParityTag mirrors perfsim's parityTag: parity lines live at
// 1<<40 and above in the LLC's address space.
const perfsimParityTag = uint64(1) << 40

// TestParityWritebackRoundTrip pins that a dirty line in perfsim's parity
// region comes back on eviction at exactly the address it was written at,
// so the packed tag keeps the high address bits the dirty flag sits above.
func TestParityWritebackRoundTrip(t *testing.T) {
	c := mustNew(t, 8<<20, 8, 64)
	stride := uint64(c.Sets() * c.LineBytes()) // same set, next tag
	for _, line := range []uint64{0, 1, 12345, 1<<24 - 1, 1 << 30} {
		addr := perfsimParityTag + line*64
		c.Reset()
		c.Access(addr, true)
		var res Result
		for k := uint64(1); k <= uint64(c.Ways()); k++ {
			res = c.Access(addr+k*stride, false)
		}
		if !res.Writeback || res.WritebackAddr != addr {
			t.Errorf("parity line %#x: eviction %+v, want a writeback of %#x", addr, res, addr)
		}
	}
}

// BenchmarkCacheAccess measures one LLC access over a synthetic mcf
// request stream, the Table II 8 MiB 8-way geometry.
func BenchmarkCacheAccess(b *testing.B) {
	p, _ := workload.ByName("mcf")
	stream := workload.NewGenerator(p, 8, 1).Stream(1 << 16)
	c, err := New(8<<20, 8, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := stream[i&(len(stream)-1)]
		c.Access(r.LineAddr*64, r.Write)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "requests/s")
}

// BenchmarkCacheAccessMisses measures the miss path: a fresh mcf stream
// four times the Table II LLC's line count hits ~2% of the time, and one
// untimed lap fills every set, so nearly every timed access evicts the
// tail of its set.
func BenchmarkCacheAccessMisses(b *testing.B) {
	c, err := New(8<<20, 8, 64)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := workload.ByName("mcf")
	stream := workload.NewGenerator(p, 8, 1).Stream(4 * c.Sets() * c.Ways())
	for _, r := range stream {
		c.Access(r.LineAddr*64, r.Write)
	}
	if hr := c.HitRate(); hr > 0.05 {
		b.Fatalf("hit rate %.3f: the stream no longer exercises the miss path", hr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := stream[i%len(stream)]
		c.Access(r.LineAddr*64, r.Write)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "requests/s")
}
