package sparing

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/stack"
)

func regionFor(stackIdx, die, bank int, rowPat fault.Pattern) fault.Region {
	return fault.Region{
		Stack: stackIdx,
		Die:   fault.ExactPattern(uint32(die)),
		Bank:  fault.ExactPattern(uint32(bank)),
		Row:   rowPat,
		Col:   fault.AllPattern(),
	}
}

func rowFault(stackIdx, die, bank, row int) fault.Fault {
	return fault.Fault{
		Class:       fault.Row,
		Persistence: fault.Permanent,
		Region:      regionFor(stackIdx, die, bank, fault.ExactPattern(uint32(row))),
	}
}

func bankFault(stackIdx, die, bank int) fault.Fault {
	return fault.Fault{
		Class:       fault.Bank,
		Persistence: fault.Permanent,
		Region:      regionFor(stackIdx, die, bank, fault.AllPattern()),
	}
}

func TestRowSparingWithinBudget(t *testing.T) {
	cfg := stack.DefaultConfig()
	d := New(cfg)
	for i := 0; i < 4; i++ {
		ok, extra := d.Offer(rowFault(0, 1, 2, 100+i), nil)
		if !ok {
			t.Fatalf("row %d not spared within budget", i)
		}
		if len(extra) != 0 {
			t.Fatalf("row sparing spared extra faults: %v", extra)
		}
	}
	if got := d.RowEntriesUsed(0, 1, 2); got != 4 {
		t.Errorf("RRT entries = %d, want 4", got)
	}
}

func TestFifthRowEscalatesToBankSparing(t *testing.T) {
	cfg := stack.DefaultConfig()
	d := New(cfg)
	var live []fault.Fault
	for i := 0; i < 4; i++ {
		f := rowFault(0, 1, 2, 100+i)
		d.Offer(f, live)
	}
	fifth := rowFault(0, 1, 2, 200)
	ok, _ := d.Offer(fifth, live)
	if !ok {
		t.Fatal("fifth row fault not spared (should escalate to bank)")
	}
	if !d.BankSpared(0, 1, 2) {
		t.Error("bank not marked spared after escalation")
	}
	if d.BankSparesUsed(0) != 1 {
		t.Errorf("bank spares used = %d, want 1", d.BankSparesUsed(0))
	}
}

func TestEscalationSparesCoResidentFaults(t *testing.T) {
	cfg := stack.DefaultConfig()
	d := New(cfg)
	// Fill the row budget, then a bank fault arrives with other live faults
	// in the same bank and elsewhere.
	live := []fault.Fault{
		rowFault(0, 1, 2, 7), // same bank: should ride along
		rowFault(0, 3, 4, 7), // different bank: untouched
		bankFault(0, 1, 2),   // the escalating fault itself
	}
	ok, extra := d.Offer(live[2], live)
	if !ok {
		t.Fatal("bank fault not spared")
	}
	if len(extra) != 2 {
		t.Fatalf("extra spared = %v, want indices {0, 2}", extra)
	}
	seen := map[int]bool{}
	for _, i := range extra {
		seen[i] = true
	}
	if !seen[0] || !seen[2] || seen[1] {
		t.Errorf("extra spared = %v, want {0,2}", extra)
	}
}

func TestBankSpareExhaustion(t *testing.T) {
	cfg := stack.DefaultConfig()
	d := New(cfg)
	if ok, _ := d.Offer(bankFault(0, 0, 0), nil); !ok {
		t.Fatal("first bank not spared")
	}
	if ok, _ := d.Offer(bankFault(0, 1, 1), nil); !ok {
		t.Fatal("second bank not spared")
	}
	if ok, _ := d.Offer(bankFault(0, 2, 2), nil); ok {
		t.Error("third bank spared beyond BRT capacity")
	}
	// The other stack has its own budget.
	if ok, _ := d.Offer(bankFault(1, 0, 0), nil); !ok {
		t.Error("other stack's bank not spared")
	}
}

func TestSubArrayFaultEscalates(t *testing.T) {
	cfg := stack.DefaultConfig()
	d := New(cfg)
	sub := fault.Fault{
		Class:       fault.SubArray,
		Persistence: fault.Permanent,
		Region:      regionFor(0, 1, 2, fault.RangePattern(0, 5200)),
	}
	ok, _ := d.Offer(sub, nil)
	if !ok {
		t.Fatal("sub-array fault not spared")
	}
	if !d.BankSpared(0, 1, 2) {
		t.Error("sub-array fault should consume a spare bank (5200 rows > 4)")
	}
}

func TestMultiBankFaultRejected(t *testing.T) {
	cfg := stack.DefaultConfig()
	d := New(cfg)
	tsvRemnant := fault.Fault{
		Class:       fault.DataTSV,
		Persistence: fault.Permanent,
		Region: fault.Region{
			Stack: 0,
			Die:   fault.ExactPattern(1),
			Bank:  fault.AllPattern(),
			Row:   fault.AllPattern(),
			Col:   fault.MaskPattern(255, 3),
		},
	}
	if ok, _ := d.Offer(tsvRemnant, nil); ok {
		t.Error("channel-wide fault spared by DDS (impossible)")
	}
}

func TestOfferToAlreadySparedBank(t *testing.T) {
	cfg := stack.DefaultConfig()
	d := New(cfg)
	d.Offer(bankFault(0, 1, 2), nil)
	// New fault lands in the already-redirected bank: nothing to do, spared.
	ok, extra := d.Offer(rowFault(0, 1, 2, 9), nil)
	if !ok || len(extra) != 0 {
		t.Errorf("fault in spared bank: ok=%v extra=%v", ok, extra)
	}
	if d.BankSparesUsed(0) != 1 {
		t.Errorf("spare banks used = %d, want 1", d.BankSparesUsed(0))
	}
}

func TestRowBudgetIsPerBank(t *testing.T) {
	cfg := stack.DefaultConfig()
	d := New(cfg)
	for b := 0; b < 8; b++ {
		for i := 0; i < 4; i++ {
			if ok, _ := d.Offer(rowFault(0, 0, b, i), nil); !ok {
				t.Fatalf("bank %d row %d not spared", b, i)
			}
		}
	}
	if d.BankSparesUsed(0) != 0 {
		t.Error("row sparing consumed bank spares")
	}
}

func TestOverheadBits(t *testing.T) {
	cfg := stack.DefaultConfig()
	bitsN := OverheadBits(cfg)
	// Paper: ~1 KB of RRT plus a tiny BRT. Our config has 2 stacks x 9 dies
	// x 8 banks = 144 banks, 4 entries each, 33 bits per entry.
	if bitsN < 8*1024 || bitsN > 32*1024 {
		t.Errorf("overhead = %d bits, expected in [8Ki,32Ki] (about 1-2 KB per stack)", bitsN)
	}
}

func TestMetadataDieBankSparable(t *testing.T) {
	cfg := stack.DefaultConfig()
	d := New(cfg)
	// Die index 8 is the metadata die; its banks can be spared too.
	if ok, _ := d.Offer(bankFault(0, 8, 3), nil); !ok {
		t.Error("metadata-die bank fault not spared")
	}
}

// sparingCycle drives one trial's worth of DDS traffic on stack 0: rows
// spared in two banks, a fifth row escalating bank (1, 2) with a
// co-resident fault, a second escalation, a budget rejection, a
// multi-bank rejection, and a fault outside the geometry.
func sparingCycle(d *DDS, live []fault.Fault) {
	for i := 0; i < 4; i++ {
		d.Offer(rowFault(0, 1, 2, 100+i), live)
	}
	d.Offer(rowFault(0, 8, 7, 3), live)
	d.Offer(rowFault(0, 1, 2, 200), live)
	d.Offer(bankFault(0, 3, 3), live)
	d.Offer(bankFault(0, 4, 4), live)
	d.Offer(fault.Fault{Region: fault.Region{Die: fault.ExactPattern(1),
		Bank: fault.AllPattern(), Row: fault.AllPattern(), Col: fault.AllPattern()}}, live)
	d.Offer(rowFault(5, 0, 0, 1), live)
}

// TestResetClearsTouchedBanks: after row sparing, bank escalation and
// both kinds of rejection, Reset returns every query to zero for every
// bank the cycle touched, and a second cycle sees the same state as the
// first.
func TestResetClearsTouchedBanks(t *testing.T) {
	cfg := stack.DefaultConfig()
	d := New(cfg)
	live := []fault.Fault{rowFault(0, 1, 2, 7), rowFault(0, 3, 4, 7)}
	sparingCycle(d, live)
	if d.RowEntriesUsed(0, 8, 7) != 1 || !d.BankSpared(0, 1, 2) || !d.BankSpared(0, 3, 3) ||
		d.BankSparesUsed(0) != 2 {
		t.Fatalf("cycle did not spare as expected: %v", d)
	}
	if fp, budget := d.RejectCounts(); fp != 2 || budget != 1 {
		t.Fatalf("RejectCounts = %d, %d; want 2, 1", fp, budget)
	}
	first := d.String()
	d.Reset()
	dies := cfg.DataDies + cfg.ECCDies
	for s := 0; s < cfg.Stacks; s++ {
		if d.BankSparesUsed(s) != 0 {
			t.Errorf("stack %d: %d spare banks used after Reset", s, d.BankSparesUsed(s))
		}
		for die := 0; die < dies; die++ {
			for bank := 0; bank < cfg.BanksPerDie; bank++ {
				if d.RowEntriesUsed(s, die, bank) != 0 || d.BankSpared(s, die, bank) {
					t.Errorf("bank (%d, %d, %d) not cleared by Reset", s, die, bank)
				}
			}
		}
	}
	if fp, budget := d.RejectCounts(); fp != 0 || budget != 0 {
		t.Errorf("RejectCounts = %d, %d after Reset", fp, budget)
	}
	if got := d.String(); got != "DDS{spareRows:0 spareBanks:0}" {
		t.Errorf("String after Reset = %s", got)
	}
	sparingCycle(d, live)
	if got := d.String(); got != first {
		t.Errorf("second cycle: %s, first: %s", got, first)
	}
}

// TestOfferResetAllocFree pins the trial loop's zero-allocation contract
// at the sparing layer: a warm Offer+Reset cycle allocates nothing.
func TestOfferResetAllocFree(t *testing.T) {
	d := New(stack.DefaultConfig())
	live := []fault.Fault{rowFault(0, 1, 2, 7), rowFault(0, 3, 4, 7)}
	cycle := func() {
		sparingCycle(d, live)
		d.Reset()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("Offer+Reset cycle allocates %.1f times, want 0", allocs)
	}
}
