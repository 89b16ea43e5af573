// Package tsv models through-silicon-via faults and Citadel's TSV-SWAP
// repair mechanism (paper §V).
//
// Each channel owns DataTSVs data TSVs and AddrTSVs address TSVs shared by
// all banks on the die. TSV-SWAP designates a small pool of existing data
// TSVs as stand-by TSVs: their bits are replicated in the per-line metadata
// (8 bits of "swap data"), so a stand-by TSV can be rerouted — via the TSV
// Redirection Register (TRR) and pass-transistor swap lanes — to carry the
// traffic of a faulty data or address TSV without losing information.
//
// Repair budget: a stand-by data TSV provides BurstLength (2) transfer
// beats. Redirecting a faulty data TSV consumes a whole stand-by TSV (both
// beats); redirecting a faulty address TSV consumes a single beat. With four
// stand-by TSVs this yields the paper's "up to 8 faulty TSVs" capacity when
// the faults are address TSVs.
package tsv

import (
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/stack"
)

// DefaultStandbyCount is the number of data TSVs designated as stand-by
// (DTSV-0, DTSV-64, DTSV-128, DTSV-192 in the paper's design).
const DefaultStandbyCount = 4

// Channel tracks TSV health and TSV-SWAP state for one channel (die).
type Channel struct {
	cfg     stack.Config
	standby []int // stand-by data TSV indices

	faultyData []bool // indexed by data TSV
	faultyAddr []bool // indexed by address TSV
	// trrData and trrAddr mark the TSVs the TSV Redirection Register has
	// rerouted onto a stand-by TSV.
	trrData, trrAddr []bool
	// dataList and addrList hold the faulty indices in ascending order, so
	// BIST, the queries and Reset touch only the faulty TSVs.
	dataList, addrList []int

	beatsFree int // remaining stand-by transfer beats
}

// NewChannel builds TSV-SWAP state for one channel with the paper's
// default stand-by pool.
func NewChannel(cfg stack.Config) *Channel { return NewChannelWithPool(cfg, DefaultStandbyCount) }

// NewChannelWithPool builds TSV-SWAP state with n stand-by TSVs spread
// evenly across the data TSVs (for pool-size sensitivity studies).
func NewChannelWithPool(cfg stack.Config, n int) *Channel {
	if n <= 0 {
		n = DefaultStandbyCount
	}
	standby := make([]int, n)
	for i := range standby {
		standby[i] = i * cfg.DataTSVs / n
	}
	return &Channel{
		cfg:        cfg,
		standby:    standby,
		faultyData: make([]bool, cfg.DataTSVs),
		faultyAddr: make([]bool, cfg.AddrTSVs),
		trrData:    make([]bool, cfg.DataTSVs),
		trrAddr:    make([]bool, cfg.AddrTSVs),
		beatsFree:  n * cfg.BurstLength,
	}
}

// Reset restores the channel to its freshly-built state, clearing only the
// entries of faulty TSVs, so the Monte Carlo engine can reuse channels
// across trials.
func (c *Channel) Reset() {
	for _, t := range c.dataList {
		c.faultyData[t], c.trrData[t] = false, false
	}
	for _, k := range c.addrList {
		c.faultyAddr[k], c.trrAddr[k] = false, false
	}
	c.dataList, c.addrList = c.dataList[:0], c.addrList[:0]
	c.beatsFree = len(c.standby) * c.cfg.BurstLength
}

// Standby returns the stand-by data TSV indices.
func (c *Channel) Standby() []int { return append([]int(nil), c.standby...) }

// SwapDataBits returns the line bit positions replicated in metadata: the
// bits carried by the stand-by TSVs (8 bits for the default config, matching
// the 8-bit swap-data field of Citadel's metadata).
func (c *Channel) SwapDataBits() []int {
	var bitsOut []int
	for _, t := range c.standby {
		bitsOut = append(bitsOut, c.cfg.BitsOnTSV(t)...)
	}
	return bitsOut
}

// BeatsFree returns the remaining repair budget in transfer beats.
func (c *Channel) BeatsFree() int { return c.beatsFree }

// InjectDataFault marks a data TSV faulty. It returns an error for an
// out-of-range index.
func (c *Channel) InjectDataFault(t int) error {
	if t < 0 || t >= c.cfg.DataTSVs {
		return fmt.Errorf("tsv: data TSV %d out of range [0,%d)", t, c.cfg.DataTSVs)
	}
	markFaulty(c.faultyData, &c.dataList, t)
	return nil
}

// InjectAddrFault marks an address TSV faulty.
func (c *Channel) InjectAddrFault(k int) error {
	if k < 0 || k >= c.cfg.AddrTSVs {
		return fmt.Errorf("tsv: addr TSV %d out of range [0,%d)", k, c.cfg.AddrTSVs)
	}
	markFaulty(c.faultyAddr, &c.addrList, k)
	return nil
}

// markFaulty sets faulty[i] and inserts i into the ascending list, once.
func markFaulty(faulty []bool, list *[]int, i int) {
	if faulty[i] {
		return
	}
	faulty[i] = true
	pos, _ := slices.BinarySearch(*list, i)
	*list = slices.Insert(*list, pos, i)
}

// addrRepairCost is the beat cost of redirecting an address TSV; a data
// TSV costs a whole stand-by TSV, BurstLength beats.
const addrRepairCost = 1

// RunBIST scans for unrepaired faulty TSVs and repairs as many as the
// stand-by budget allows, loading the TRR. It returns the number of repairs
// performed. Data TSV faults on stand-by TSVs themselves need no lane (their
// bits already live in metadata) but still consume that stand-by's beats.
func (c *Channel) RunBIST() int {
	repaired := 0
	// Address TSVs first, in ascending index order: a single ATSV fault
	// makes half the channel unreachable, so they are the most valuable
	// repairs (paper Insight 1).
	for _, k := range c.addrList {
		if c.trrAddr[k] {
			continue
		}
		if c.beatsFree < addrRepairCost {
			return repaired
		}
		c.beatsFree -= addrRepairCost
		c.trrAddr[k] = true
		repaired++
	}
	for _, t := range c.dataList {
		if c.trrData[t] {
			continue
		}
		if c.beatsFree < c.cfg.BurstLength {
			return repaired
		}
		c.beatsFree -= c.cfg.BurstLength
		c.trrData[t] = true
		repaired++
	}
	return repaired
}

// Repaired reports whether the given TSV fault has been redirected.
func (c *Channel) Repaired(f fault.Fault) bool {
	switch f.Class {
	case fault.DataTSV:
		return f.TSV >= 0 && f.TSV < len(c.trrData) && c.trrData[f.TSV]
	case fault.AddrTSV:
		return f.TSV >= 0 && f.TSV < len(c.trrAddr) && c.trrAddr[f.TSV]
	default:
		return false
	}
}

// CorruptedBits returns the line bit positions still corrupted by
// unrepaired faulty data TSVs, grouped by TSV in ascending index order.
func (c *Channel) CorruptedBits() []int {
	var out []int
	for _, t := range c.dataList {
		if !c.trrData[t] {
			out = append(out, c.cfg.BitsOnTSV(t)...)
		}
	}
	return out
}

// UnreachableAddrBits returns the address-TSV indices whose faults remain
// unrepaired, in ascending order; each makes half of the channel's rows
// unreachable.
func (c *Channel) UnreachableAddrBits() []int {
	var out []int
	for _, k := range c.addrList {
		if !c.trrAddr[k] {
			out = append(out, k)
		}
	}
	return out
}

// HasCorruptedBits reports whether any unrepaired faulty data TSV remains —
// the emptiness test of CorruptedBits without building the bit list (the
// simulator asks this on every TSV event).
func (c *Channel) HasCorruptedBits() bool { return anyUnrepaired(c.dataList, c.trrData) }

// HasUnreachableAddr reports whether any unrepaired faulty address TSV
// remains — the emptiness test of UnreachableAddrBits without allocating.
func (c *Channel) HasUnreachableAddr() bool { return anyUnrepaired(c.addrList, c.trrAddr) }

func anyUnrepaired(faulty []int, trr []bool) bool {
	for _, i := range faulty {
		if !trr[i] {
			return true
		}
	}
	return false
}

// Detector models Citadel's TSV-fault detection flow (paper §V-C.2): two
// fixed rows per die hold known data at bit-inverse addresses. A CRC
// mismatch on a demand read triggers a read of the fixed rows; a mismatch
// there points at TSV (rather than cell) faults and triggers BIST.
type Detector struct {
	ch *Channel
	// FixedRowsCorrupt is set by the functional model when a read of the
	// fixed rows returns unexpected data.
	FixedRowsCorrupt bool
}

// NewDetector builds a detector for a channel.
func NewDetector(ch *Channel) *Detector { return &Detector{ch: ch} }

// FixedRowAddresses returns the two probe row addresses: all-zeros and
// all-ones within the row address space, each bit the inverse of the other.
func (d *Detector) FixedRowAddresses() (int, int) {
	return 0, d.ch.cfg.RowsPerBank - 1
}

// CheckFixedRows simulates reading the fixed rows: they appear corrupt when
// any unrepaired data-TSV fault corrupts their bits, or when an unrepaired
// address-TSV fault makes one of them unreachable.
func (d *Detector) CheckFixedRows() bool {
	if d.ch.HasCorruptedBits() || d.ch.HasUnreachableAddr() {
		d.FixedRowsCorrupt = true
		return true
	}
	d.FixedRowsCorrupt = false
	return false
}

// OnCRCMismatch drives the detection flow: probe the fixed rows, and when
// they implicate the TSVs, run BIST to repair. It reports whether a TSV
// fault was found and how many repairs were made.
func (d *Detector) OnCRCMismatch() (tsvFault bool, repairs int) {
	if !d.CheckFixedRows() {
		return false, 0
	}
	return true, d.ch.RunBIST()
}

// Swapper applies TSV-SWAP across a whole system for the reliability
// simulator: it consumes TSV fault events and reports which remain
// unrepaired (and therefore keep their footprints).
type Swapper struct {
	cfg  stack.Config
	pool int
	// channels is indexed stack*(DataDies+ECCDies)+die; entries are built
	// on first use.
	channels []*Channel
	// touched lists the channels mutated since the last Reset, each once.
	touched []int
}

// NewSwapper builds system-wide TSV-SWAP state with the default pool.
func NewSwapper(cfg stack.Config) *Swapper { return NewSwapperWithPool(cfg, DefaultStandbyCount) }

// NewSwapperWithPool builds system-wide TSV-SWAP state with n stand-by
// TSVs per channel.
func NewSwapperWithPool(cfg stack.Config, n int) *Swapper {
	return &Swapper{cfg: cfg, pool: n, channels: make([]*Channel, cfg.Stacks*(cfg.DataDies+cfg.ECCDies))}
}

// Reset restores every channel to its freshly-built state, retaining the
// channel objects so a Swapper can be reused across Monte Carlo trials. It
// visits only the channels applied to since the last reset.
func (s *Swapper) Reset() {
	for _, i := range s.touched {
		s.channels[i].Reset()
	}
	s.touched = s.touched[:0]
}

// Apply consumes a TSV fault event, injects it into the owning channel,
// runs detection/BIST, and reports whether the fault was repaired. Non-TSV
// faults are ignored (returned as unrepaired=false, handled=false); a TSV
// fault outside the geometry's stacks and dies is handled but unrepaired,
// like an out-of-range TSV index.
func (s *Swapper) Apply(f fault.Fault) (handled, repaired bool) {
	if !f.Class.IsTSV() {
		return false, false
	}
	dies := s.cfg.DataDies + s.cfg.ECCDies
	die := int(f.Region.Die.Val)
	if f.Region.Stack < 0 || f.Region.Stack >= s.cfg.Stacks || die >= dies {
		return true, false
	}
	idx := f.Region.Stack*dies + die
	ch := s.channels[idx]
	if ch == nil {
		ch = NewChannelWithPool(s.cfg, s.pool)
		s.channels[idx] = ch
	}
	var err error
	if f.Class == fault.DataTSV {
		err = ch.InjectDataFault(f.TSV)
	} else {
		err = ch.InjectAddrFault(f.TSV)
	}
	if err != nil {
		return true, false
	}
	if !slices.Contains(s.touched, idx) {
		s.touched = append(s.touched, idx)
	}
	// The detection flow of Detector.OnCRCMismatch, inlined so the hot path
	// does not allocate a Detector per event: corrupt fixed rows implicate
	// the TSVs and trigger BIST.
	if ch.HasCorruptedBits() || ch.HasUnreachableAddr() {
		ch.RunBIST()
	}
	return true, ch.Repaired(f)
}
