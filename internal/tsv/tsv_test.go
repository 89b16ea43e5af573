package tsv

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/stack"
)

func newTestChannel(t *testing.T) *Channel {
	t.Helper()
	return NewChannel(stack.DefaultConfig())
}

func TestStandbyPool(t *testing.T) {
	ch := newTestChannel(t)
	want := []int{0, 64, 128, 192}
	got := ch.Standby()
	if len(got) != len(want) {
		t.Fatalf("standby pool size %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("standby[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSwapDataBits(t *testing.T) {
	ch := newTestChannel(t)
	bits := ch.SwapDataBits()
	// Paper: bit[0], bit[64], ..., bit[448] — 8 bits total.
	if len(bits) != 8 {
		t.Fatalf("swap data bits = %d, want 8", len(bits))
	}
	want := map[int]bool{0: true, 64: true, 128: true, 192: true, 256: true, 320: true, 384: true, 448: true}
	for _, b := range bits {
		if !want[b] {
			t.Errorf("unexpected swap bit %d", b)
		}
	}
}

func TestRepairSingleDataTSV(t *testing.T) {
	ch := newTestChannel(t)
	if err := ch.InjectDataFault(1); err != nil {
		t.Fatal(err)
	}
	if n := len(ch.CorruptedBits()); n != 2 {
		t.Fatalf("DTSV fault corrupts %d bits, want 2 (burst length)", n)
	}
	if got := ch.RunBIST(); got != 1 {
		t.Fatalf("RunBIST repaired %d, want 1", got)
	}
	if n := len(ch.CorruptedBits()); n != 0 {
		t.Errorf("%d bits corrupt after repair", n)
	}
}

func TestRepairAddrTSV(t *testing.T) {
	ch := newTestChannel(t)
	if err := ch.InjectAddrFault(0); err != nil {
		t.Fatal(err)
	}
	if n := len(ch.UnreachableAddrBits()); n != 1 {
		t.Fatalf("unrepaired addr faults = %d, want 1", n)
	}
	ch.RunBIST()
	if n := len(ch.UnreachableAddrBits()); n != 0 {
		t.Errorf("addr fault not repaired")
	}
}

func TestRepairBudget(t *testing.T) {
	ch := newTestChannel(t)
	// 4 stand-by TSVs x burst 2 = 8 beats. 8 addr faults cost 1 beat each.
	for k := 0; k < 8; k++ {
		if err := ch.InjectAddrFault(k); err != nil {
			t.Fatal(err)
		}
	}
	if got := ch.RunBIST(); got != 8 {
		t.Fatalf("repaired %d addr faults, want 8", got)
	}
	// Ninth fault exceeds the budget.
	if err := ch.InjectAddrFault(8); err != nil {
		t.Fatal(err)
	}
	if got := ch.RunBIST(); got != 0 {
		t.Fatalf("repaired %d beyond budget, want 0", got)
	}
	if n := len(ch.UnreachableAddrBits()); n != 1 {
		t.Errorf("unrepaired addr faults = %d, want 1", n)
	}
}

func TestDataRepairCostsBurstBeats(t *testing.T) {
	ch := newTestChannel(t)
	// 4 data faults cost 2 beats each = 8 beats, exactly the budget.
	for _, tsv := range []int{10, 20, 30, 40} {
		if err := ch.InjectDataFault(tsv); err != nil {
			t.Fatal(err)
		}
	}
	if got := ch.RunBIST(); got != 4 {
		t.Fatalf("repaired %d data faults, want 4", got)
	}
	if ch.BeatsFree() != 0 {
		t.Errorf("beats free = %d, want 0", ch.BeatsFree())
	}
	if err := ch.InjectDataFault(50); err != nil {
		t.Fatal(err)
	}
	if got := ch.RunBIST(); got != 0 {
		t.Errorf("repaired %d with no budget", got)
	}
}

func TestAddrFaultsPrioritized(t *testing.T) {
	ch := newTestChannel(t)
	// 4 data faults (8 beats) + 2 addr faults (2 beats) exceed the budget;
	// the addr faults must win slots first.
	for _, tsv := range []int{10, 20, 30, 40} {
		if err := ch.InjectDataFault(tsv); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 2; k++ {
		if err := ch.InjectAddrFault(k); err != nil {
			t.Fatal(err)
		}
	}
	ch.RunBIST()
	if n := len(ch.UnreachableAddrBits()); n != 0 {
		t.Errorf("addr faults unrepaired = %d, want 0 (priority)", n)
	}
	// 8-2 = 6 beats left for data: 3 of 4 repaired.
	if n := len(ch.CorruptedBits()); n != 2 {
		t.Errorf("corrupted bits = %d, want 2 (one data TSV left)", n)
	}
}

func TestInjectValidation(t *testing.T) {
	ch := newTestChannel(t)
	if err := ch.InjectDataFault(-1); err == nil {
		t.Error("accepted negative data TSV")
	}
	if err := ch.InjectDataFault(256); err == nil {
		t.Error("accepted out-of-range data TSV")
	}
	if err := ch.InjectAddrFault(24); err == nil {
		t.Error("accepted out-of-range addr TSV")
	}
}

func TestDetectorFlow(t *testing.T) {
	ch := newTestChannel(t)
	det := NewDetector(ch)
	lo, hi := det.FixedRowAddresses()
	if lo != 0 || hi != 65535 {
		t.Errorf("fixed rows = %d,%d want 0,65535", lo, hi)
	}
	// Healthy channel: CRC mismatch does not implicate TSVs.
	if tsvFault, _ := det.OnCRCMismatch(); tsvFault {
		t.Error("healthy channel flagged TSV fault")
	}
	if err := ch.InjectDataFault(7); err != nil {
		t.Fatal(err)
	}
	tsvFault, repairs := det.OnCRCMismatch()
	if !tsvFault {
		t.Error("faulty TSV not detected")
	}
	if repairs != 1 {
		t.Errorf("repairs = %d, want 1", repairs)
	}
}

func TestSwapperApply(t *testing.T) {
	cfg := stack.DefaultConfig()
	s := NewSwapper(cfg)
	mkFault := func(class fault.Class, stackIdx, die, tsvIdx int) fault.Fault {
		return fault.Fault{
			Class: class,
			TSV:   tsvIdx,
			Region: fault.Region{
				Stack: stackIdx,
				Die:   fault.ExactPattern(uint32(die)),
				Bank:  fault.AllPattern(),
				Row:   fault.AllPattern(),
				Col:   fault.AllPattern(),
			},
		}
	}
	handled, repaired := s.Apply(mkFault(fault.DataTSV, 0, 3, 42))
	if !handled || !repaired {
		t.Errorf("data TSV fault: handled=%v repaired=%v", handled, repaired)
	}
	// Non-TSV faults pass through untouched.
	handled, _ = s.Apply(fault.Fault{Class: fault.Bank})
	if handled {
		t.Error("bank fault handled by swapper")
	}
	// Exhaust one channel's budget; other channels are unaffected.
	for i := 0; i < 4; i++ {
		s.Apply(mkFault(fault.DataTSV, 0, 5, i+1))
	}
	_, repaired = s.Apply(mkFault(fault.DataTSV, 0, 5, 200))
	if repaired {
		t.Error("repaired beyond channel budget")
	}
	_, repaired = s.Apply(mkFault(fault.DataTSV, 0, 6, 200))
	if !repaired {
		t.Error("fresh channel failed to repair")
	}
	_, repaired = s.Apply(mkFault(fault.DataTSV, 1, 5, 200))
	if !repaired {
		t.Error("other stack's channel failed to repair")
	}
}

func TestQueriesAscendingTSVOrder(t *testing.T) {
	// CorruptedBits and UnreachableAddrBits list TSVs in ascending index
	// order whatever the injection order, so their output is the same on
	// every run.
	cfg := stack.DefaultConfig()
	ch := NewChannelWithPool(cfg, 1) // 2 beats: room for two address repairs only
	for _, k := range []int{9, 2, 14, 5} {
		if err := ch.InjectAddrFault(k); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []int{200, 3, 77} {
		if err := ch.InjectDataFault(d); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := ch.RunBIST(), 2; got != want {
		t.Fatalf("RunBIST repaired %d, want %d", got, want)
	}
	if got, want := ch.UnreachableAddrBits(), []int{9, 14}; !slices.Equal(got, want) {
		t.Errorf("UnreachableAddrBits = %v, want %v (2 and 5 repaired first)", got, want)
	}
	var want []int
	for _, d := range []int{3, 77, 200} {
		want = append(want, cfg.BitsOnTSV(d)...)
	}
	if got := ch.CorruptedBits(); !slices.Equal(got, want) {
		t.Errorf("CorruptedBits = %v, want %v", got, want)
	}
}

func TestSwapperOutOfGeometry(t *testing.T) {
	cfg := stack.DefaultConfig()
	s := NewSwapper(cfg)
	for _, f := range []fault.Fault{
		{Class: fault.DataTSV, Region: fault.Region{Stack: cfg.Stacks, Die: fault.ExactPattern(0)}},
		{Class: fault.DataTSV, Region: fault.Region{Stack: -1, Die: fault.ExactPattern(0)}},
		{Class: fault.AddrTSV, Region: fault.Region{Die: fault.ExactPattern(uint32(cfg.DataDies + cfg.ECCDies))}},
		{Class: fault.DataTSV, TSV: cfg.DataTSVs, Region: fault.Region{Die: fault.ExactPattern(0)}},
	} {
		if handled, repaired := s.Apply(f); !handled || repaired {
			t.Errorf("Apply(%+v) = handled %v, repaired %v; want handled, unrepaired", f, handled, repaired)
		}
	}
}

// refChannel is the map-based TSV-SWAP channel model the slice-backed
// Channel replaced, kept as the oracle for the differential test.
type refChannel struct {
	cfg        stack.Config
	faultyData map[int]bool
	faultyAddr map[int]bool
	trrData    map[int]bool
	trrAddr    map[int]bool
	beatsFree  int
}

func newRefChannel(cfg stack.Config, pool int) *refChannel {
	return &refChannel{cfg: cfg, faultyData: map[int]bool{}, faultyAddr: map[int]bool{},
		trrData: map[int]bool{}, trrAddr: map[int]bool{}, beatsFree: pool * cfg.BurstLength}
}

// runBIST scans every TSV index in repair order: address TSVs first, then
// data TSVs, each ascending, stopping at the first that does not fit.
func (c *refChannel) runBIST() int {
	repaired := 0
	for k := 0; k < c.cfg.AddrTSVs; k++ {
		if !c.faultyAddr[k] || c.trrAddr[k] {
			continue
		}
		if c.beatsFree < 1 {
			return repaired
		}
		c.beatsFree--
		c.trrAddr[k] = true
		repaired++
	}
	for d := 0; d < c.cfg.DataTSVs; d++ {
		if !c.faultyData[d] || c.trrData[d] {
			continue
		}
		if c.beatsFree < c.cfg.BurstLength {
			return repaired
		}
		c.beatsFree -= c.cfg.BurstLength
		c.trrData[d] = true
		repaired++
	}
	return repaired
}

func (c *refChannel) unrepaired() bool {
	for d := range c.faultyData {
		if !c.trrData[d] {
			return true
		}
	}
	for k := range c.faultyAddr {
		if !c.trrAddr[k] {
			return true
		}
	}
	return false
}

// refSwapper is the map-based oracle of Swapper.
type refSwapper struct {
	cfg      stack.Config
	pool     int
	channels map[[2]int]*refChannel
}

func (s *refSwapper) apply(f fault.Fault) bool {
	key := [2]int{f.Region.Stack, int(f.Region.Die.Val)}
	ch := s.channels[key]
	if ch == nil {
		ch = newRefChannel(s.cfg, s.pool)
		s.channels[key] = ch
	}
	if f.Class == fault.DataTSV {
		ch.faultyData[f.TSV] = true
	} else {
		ch.faultyAddr[f.TSV] = true
	}
	if ch.unrepaired() {
		ch.runBIST()
	}
	if f.Class == fault.DataTSV {
		return ch.trrData[f.TSV]
	}
	return ch.trrAddr[f.TSV]
}

// randomTSVFault draws a TSV fault on a few hot TSVs of a few channels, so
// budgets run out and faults repeat.
func randomTSVFault(rng *rand.Rand, cfg stack.Config) fault.Fault {
	f := fault.Fault{Class: fault.DataTSV, TSV: rng.Intn(cfg.DataTSVs)}
	if rng.Intn(3) == 0 {
		f.Class, f.TSV = fault.AddrTSV, rng.Intn(cfg.AddrTSVs)
	} else if rng.Intn(2) == 0 {
		f.TSV = rng.Intn(6) * 32 // hot TSVs, the stand-by ones among them
	}
	f.Region = fault.Region{Stack: rng.Intn(2), Die: fault.ExactPattern(uint32(rng.Intn(3)))}
	return f
}

func TestChannelMatchesReferenceModel(t *testing.T) {
	cfg := stack.DefaultConfig()
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 3000; trial++ {
		pool := 1 + rng.Intn(5)
		ch, ref := NewChannelWithPool(cfg, pool), newRefChannel(cfg, pool)
		for n := rng.Intn(12); n > 0; n-- {
			f := randomTSVFault(rng, cfg)
			if f.Class == fault.DataTSV {
				_ = ch.InjectDataFault(f.TSV)
				ref.faultyData[f.TSV] = true
			} else {
				_ = ch.InjectAddrFault(f.TSV)
				ref.faultyAddr[f.TSV] = true
			}
			if rng.Intn(2) == 0 {
				if got, want := ch.RunBIST(), ref.runBIST(); got != want {
					t.Fatalf("trial %d: RunBIST repaired %d, reference %d", trial, got, want)
				}
			}
			if ch.BeatsFree() != ref.beatsFree {
				t.Fatalf("trial %d: BeatsFree %d, reference %d", trial, ch.BeatsFree(), ref.beatsFree)
			}
			for _, d := range []int{f.TSV, rng.Intn(cfg.DataTSVs)} {
				g := fault.Fault{Class: fault.DataTSV, TSV: d}
				if ch.Repaired(g) != ref.trrData[d] {
					t.Fatalf("trial %d: Repaired(data %d) = %v, reference %v", trial, d, ch.Repaired(g), ref.trrData[d])
				}
			}
			for k := 0; k < cfg.AddrTSVs; k++ {
				g := fault.Fault{Class: fault.AddrTSV, TSV: k}
				if ch.Repaired(g) != ref.trrAddr[k] {
					t.Fatalf("trial %d: Repaired(addr %d) = %v, reference %v", trial, k, ch.Repaired(g), ref.trrAddr[k])
				}
			}
		}
	}
}

func TestSwapperMatchesReferenceModel(t *testing.T) {
	// One Swapper reused across trials through Reset must answer every
	// Apply as the reference model does and as a fresh Swapper does.
	cfg := stack.DefaultConfig()
	rng := rand.New(rand.NewSource(22))
	for _, pool := range []int{1, DefaultStandbyCount, 6} {
		reused := NewSwapperWithPool(cfg, pool)
		for trial := 0; trial < 1000; trial++ {
			reused.Reset()
			fresh := NewSwapperWithPool(cfg, pool)
			ref := &refSwapper{cfg: cfg, pool: pool, channels: map[[2]int]*refChannel{}}
			for n := rng.Intn(16); n > 0; n-- {
				f := randomTSVFault(rng, cfg)
				want := ref.apply(f)
				for name, s := range map[string]*Swapper{"reused": reused, "fresh": fresh} {
					if handled, got := s.Apply(f); !handled || got != want {
						t.Fatalf("pool %d trial %d: %s Apply(%v tsv %d) = %v,%v, reference repaired %v",
							pool, trial, name, f.Class, f.TSV, handled, got, want)
					}
				}
			}
			for i := range reused.channels {
				if !sameChannelState(reused.channels[i], fresh.channels[i], cfg, pool) {
					t.Fatalf("pool %d trial %d: reused channel %d differs from a fresh one", pool, trial, i)
				}
			}
		}
	}
}

// sameChannelState compares two channels' faults and budgets; a nil
// channel (never built) reads as a healthy one.
func sameChannelState(a, b *Channel, cfg stack.Config, pool int) bool {
	state := func(c *Channel) (int, []int, []int) {
		if c == nil {
			return pool * cfg.BurstLength, nil, nil
		}
		return c.BeatsFree(), c.dataList, c.addrList
	}
	beatsA, dataA, addrA := state(a)
	beatsB, dataB, addrB := state(b)
	return beatsA == beatsB && slices.Equal(dataA, dataB) && slices.Equal(addrA, addrB)
}
