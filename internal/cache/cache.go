// Package cache implements a set-associative, write-back LRU cache used to
// model the shared last-level cache (LLC) of the baseline system (Table II)
// and Citadel's on-demand parity caching for Dimension-1 parity lines
// (paper §VI-C, Figures 12 and 13).
package cache

import (
	"errors"
	"fmt"
)

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	sets      int
	ways      int
	lineBytes int

	// lines holds every way, set-major: set s occupies
	// lines[s*ways : (s+1)*ways].
	lines []way
	// clock stamps each access; it is 1 at the first access, so a way's
	// zero lru marks it invalid.
	clock uint64

	hits, misses, evictions, writebacks uint64
}

// way is one cache line's state. The dirty flag lives in tag's top bit,
// which a real tag never reaches: a tag is an address divided by
// lineBytes*sets, and New rejects the one geometry (lineBytes*sets == 1)
// that leaves tags the full 64 bits.
type way struct {
	tag uint64 // line tag | dirtyBit
	lru uint64 // clock of the last access; 0 = invalid
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
	return &Cache{sets: sets, ways: ways, lineBytes: lineBytes, lines: make([]way, lines)}, nil
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.lineBytes }

// index splits an address into set index and tag.
func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr / uint64(c.lineBytes)
	return int(line % uint64(c.sets)), line / uint64(c.sets)
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
	c.clock++
	set, tag := c.index(addr)
	ways := c.lines[set*c.ways : (set+1)*c.ways]
	for w := range ways {
		if ways[w].tag&^dirtyBit == tag && ways[w].lru != 0 {
			c.hits++
			ways[w].lru = c.clock
			if write {
				ways[w].tag |= dirtyBit
			}
			return Result{Hit: true}
		}
	}
	c.misses++
	// Choose victim: first invalid way, else LRU.
	victim := -1
	var oldest uint64 = ^uint64(0)
	for w := range ways {
		if ways[w].lru == 0 {
			victim = w
			break
		}
		if ways[w].lru < oldest {
			oldest = ways[w].lru
			victim = w
		}
	}
	v := &ways[victim]
	res := Result{}
	if v.lru != 0 {
		c.evictions++
		if v.tag&dirtyBit != 0 {
			c.writebacks++
			res.Writeback = true
			res.WritebackAddr = ((v.tag&^dirtyBit)*uint64(c.sets) + uint64(set)) * uint64(c.lineBytes)
		}
	}
	v.tag = tag
	if write {
		v.tag |= dirtyBit
	}
	v.lru = c.clock
	return res
}

// Probe reports whether addr is resident without updating LRU state.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for _, w := range c.lines[set*c.ways : (set+1)*c.ways] {
		if w.tag&^dirtyBit == tag && w.lru != 0 {
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
	clear(c.lines)
	c.clock, c.hits, c.misses, c.evictions, c.writebacks = 0, 0, 0, 0, 0
}
