// Package cache implements a set-associative, write-back LRU cache used to
// model the shared last-level cache (LLC) of the baseline system (Table II)
// and Citadel's on-demand parity caching for Dimension-1 parity lines
// (paper §VI-C, Figures 12 and 13).
//
// Each set keeps its ways in recency order, most recently used first, so
// a hit moves the line to the front and a miss in a full set evicts the
// last way: no LRU clock and no victim scan.
package cache

import (
	"errors"
	"fmt"
	"math/bits"
)

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	ways      int
	lineBytes int
	setMask   uint64 // sets-1
	setShift  uint   // log2(sets)

	// tags holds every way, set-major and most recently used first: set s
	// occupies tags[s*ways : (s+1)*ways], and its first fill[s] entries
	// are its valid lines. Lines are invalidated only by Reset, so the
	// valid ways always form a prefix and the last valid way is the LRU.
	// The dirty flag lives in a tag's top bit, which a real tag never
	// reaches: a tag is an address divided by lineBytes*sets, and New
	// rejects the one geometry (lineBytes*sets == 1) that leaves tags the
	// full 64 bits.
	tags []uint64
	fill []int

	hits, misses, evictions, writebacks uint64
}

const dirtyBit = uint64(1) << 63

// New builds a cache of totalBytes capacity with the given associativity
// and line size. totalBytes must divide evenly into sets of ways lines.
func New(totalBytes, ways, lineBytes int) (*Cache, error) {
	if totalBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		return nil, errors.New("cache: sizes must be positive")
	}
	lines := totalBytes / lineBytes
	if lines*lineBytes != totalBytes {
		return nil, fmt.Errorf("cache: %d bytes not a multiple of line size %d", totalBytes, lineBytes)
	}
	sets := lines / ways
	if sets*ways != lines {
		return nil, fmt.Errorf("cache: %d lines not divisible by %d ways", lines, ways)
	}
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	if sets*lineBytes < 2 {
		return nil, errors.New("cache: a single set of 1-byte lines leaves no tag bit for the dirty flag")
	}
	return &Cache{
		ways: ways, lineBytes: lineBytes,
		setMask: uint64(sets - 1), setShift: uint(bits.TrailingZeros(uint(sets))),
		tags: make([]uint64, lines), fill: make([]int, sets),
	}, nil
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.lineBytes }

// index splits an address into set index and tag.
func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr / uint64(c.lineBytes)
	return int(line & c.setMask), line >> c.setShift
}

// Result describes the outcome of an access.
type Result struct {
	Hit bool
	// Writeback is set when the access evicted a dirty victim; its address
	// is the victim's line-aligned address.
	Writeback     bool
	WritebackAddr uint64
}

// Access performs a read (write=false) or write (write=true) of addr,
// allocating on miss and evicting LRU victims.
func (c *Cache) Access(addr uint64, write bool) Result {
	set, tag := c.index(addr)
	if write {
		tag |= dirtyBit
	}
	ways := c.tags[set*c.ways : (set+1)*c.ways]
	n := c.fill[set]
	for w, t := range ways[:n] {
		if (t^tag)&^dirtyBit == 0 {
			c.hits++
			tag |= t & dirtyBit
			for ; w > 0; w-- {
				ways[w] = ways[w-1]
			}
			ways[0] = tag
			return Result{Hit: true}
		}
	}
	c.misses++
	res := Result{}
	if n == len(ways) {
		n--
		c.evictions++
		if v := ways[n]; v&dirtyBit != 0 {
			c.writebacks++
			res.Writeback = true
			res.WritebackAddr = ((v&^dirtyBit)<<c.setShift | uint64(set)) * uint64(c.lineBytes)
		}
	} else {
		c.fill[set] = n + 1
	}
	for w := n; w > 0; w-- {
		ways[w] = ways[w-1]
	}
	ways[0] = tag
	return res
}

// Probe reports whether addr is resident without updating LRU state.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for _, t := range c.tags[set*c.ways : set*c.ways+c.fill[set]] {
		if t&^dirtyBit == tag {
			return true
		}
	}
	return false
}

// Stats returns cumulative counters.
func (c *Cache) Stats() (hits, misses, evictions, writebacks uint64) {
	return c.hits, c.misses, c.evictions, c.writebacks
}

// HitRate returns hits/(hits+misses), or 0 before any access.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	clear(c.fill)
	c.hits, c.misses, c.evictions, c.writebacks = 0, 0, 0, 0
}
