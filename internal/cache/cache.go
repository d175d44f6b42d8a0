// Package cache implements a set-associative cache model with LRU
// replacement and write-back/write-allocate semantics.
//
// The paper's hierarchy (Section 5): 32KB 4-way split L1 I/D caches and a
// 256KB 4-way unified L2 with 128-byte lines. Section 4 additionally
// requires the L2 to remember each line's virtual address so that the
// sequence-number cache can be indexed by VA on writebacks (physical
// addresses may change across context switches). This model is
// trace-driven: a workload record carries one address and nothing
// translates it, so a line's VA is its tag address and the line address a
// writeback reports is exactly the VA the paper's L2 would hand the SNC.
package cache

import (
	"fmt"
	"math/bits"
	"slices"
	"unsafe"
)

// Config describes one cache.
type Config struct {
	Name      string
	SizeBytes int
	LineBytes int
	// Ways is the associativity. Ways == 0 means fully associative.
	Ways int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache %s: size and line must be positive", c.Name)
	}
	if c.SizeBytes%c.LineBytes != 0 {
		return fmt.Errorf("cache %s: size %d not a multiple of line %d", c.Name, c.SizeBytes, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	ways := c.Ways
	if ways == 0 {
		ways = lines
	}
	if lines%ways != 0 {
		return fmt.Errorf("cache %s: %d lines not divisible by %d ways", c.Name, lines, ways)
	}
	sets := lines / ways
	if bits.OnesCount(uint(sets)) != 1 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	if bits.OnesCount(uint(c.LineBytes)) != 1 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	return nil
}

// lineMeta holds the per-line state that is not needed by the hit scan.
type lineMeta struct {
	used  uint64 // LRU timestamp
	dirty bool
}

// Cache is a set-associative cache. It tracks tags and dirty state only; the
// simulated data contents live in the functional memory image.
//
// Storage is struct-of-arrays: the hit scan walks a dense tag array (one
// 8-byte word per way, set i owning words [i*ways, (i+1)*ways)) while the
// LRU/dirty metadata lives in a parallel array touched only on hits and
// fills. A tag word encodes validity in its low bit — (tag<<1)|1 when valid,
// 0 when not — so the scan is a single compare per way with no way for an
// invalid line's stale tag to alias a real one.
type Cache struct {
	cfg      Config
	tags     []uint64
	meta     []lineMeta
	ways     int
	setShift uint
	setMask  uint64
	tick     uint64

	// dirtyScratch backs InvalidateAll's result so steady-state context
	// switches stop allocating.
	dirtyScratch []uint64

	// Statistics.
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// New builds a cache from cfg, panicking on invalid configuration.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	ways := cfg.Ways
	if ways == 0 {
		ways = lines
	}
	sets := lines / ways
	return &Cache{
		cfg:      cfg,
		tags:     make([]uint64, lines),
		meta:     make([]lineMeta, lines),
		ways:     ways,
		setShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:  uint64(sets - 1),
	}
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the line-aligned address of addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ uint64(c.cfg.LineBytes-1)
}

func (c *Cache) setIndex(addr uint64) uint64 {
	return (addr >> c.setShift) & c.setMask
}

// Result describes the outcome of one access.
type Result struct {
	Hit bool
	// WritebackNeeded reports that the fill displaced a dirty line;
	// WritebackAddr is that line's address.
	WritebackNeeded bool
	WritebackAddr   uint64
}

// Access performs a read (write=false) or write (write=true) of addr with
// write-allocate + write-back semantics, filling on miss.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.Accesses++
	c.tick++
	base := int(c.setIndex(addr)) * c.ways
	tags := c.tags[base : base+c.ways]
	want := addr>>c.setShift<<1 | 1
	for i := range tags {
		if tags[i] == want {
			c.Hits++
			m := &c.meta[base+i]
			m.used = c.tick
			if write {
				m.dirty = true
			}
			return Result{Hit: true}
		}
	}
	c.Misses++
	// Choose victim: first invalid way, else LRU.
	victim := 0
	for i := range tags {
		if tags[i] == 0 {
			victim = i
			break
		}
		if c.meta[base+i].used < c.meta[base+victim].used {
			victim = i
		}
	}
	res := Result{}
	if tags[victim] != 0 && c.meta[base+victim].dirty {
		c.Writebacks++
		res.WritebackNeeded = true
		res.WritebackAddr = tags[victim] >> 1 << c.setShift
	}
	tags[victim] = want
	c.meta[base+victim] = lineMeta{used: c.tick, dirty: write}
	return res
}

// Probe reports whether addr is present without touching LRU state or stats.
func (c *Cache) Probe(addr uint64) bool {
	base := int(c.setIndex(addr)) * c.ways
	tags := c.tags[base : base+c.ways]
	want := addr>>c.setShift<<1 | 1
	for i := range tags {
		if tags[i] == want {
			return true
		}
	}
	return false
}

// InvalidateAll clears the cache (used at context switches), returning the
// dirty lines' addresses so callers can write them back. The flushed dirty
// lines count as writebacks. The returned slice is a scratch buffer owned by
// the cache, valid only until the next InvalidateAll call.
func (c *Cache) InvalidateAll() (dirty []uint64) {
	dirty = c.dirtyScratch[:0]
	for i := range c.tags {
		m := &c.meta[i]
		if c.tags[i] != 0 && m.dirty {
			c.Writebacks++
			dirty = append(dirty, c.tags[i]>>1<<c.setShift) //secsim:allowalloc scratch buffer reuse; amortized zero, gated by sim AllocsPerRun tests
		}
		c.tags[i] = 0
		m.dirty = false
	}
	c.dirtyScratch = dirty
	return dirty
}

// ResetStats clears counters but keeps cache contents (used after warmup).
func (c *Cache) ResetStats() {
	c.Accesses, c.Hits, c.Misses, c.Writebacks = 0, 0, 0, 0
}

// Restore copies the state of src, a cache with the same geometry, into c:
// its tag array, per-line metadata (LRU timestamp, dirty bit), LRU tick and
// stat counters. c keeps its own arrays and scratch buffer, so a restore
// allocates nothing.
func (c *Cache) Restore(src *Cache) {
	tags, meta, scratch := c.tags, c.meta, c.dirtyScratch
	*c = *src
	c.tags, c.meta, c.dirtyScratch = tags, meta, scratch
	copy(tags, src.tags)
	copy(meta, src.meta)
}

// Holds reports whether the cache's contents and LRU clock equal src's: the
// same lines in the same ways with the same recency and dirty state.
// Statistics are not compared. It allocates nothing.
func (c *Cache) Holds(src *Cache) bool {
	return c.tick == src.tick && slices.Equal(c.tags, src.tags) && slices.Equal(c.meta, src.meta)
}

// Bytes reports the heap bytes the cache holds: the struct, its tag and
// metadata arrays and its scratch buffer. It allocates nothing.
func (c *Cache) Bytes() int {
	return int(unsafe.Sizeof(*c)) + 8*(cap(c.tags)+cap(c.dirtyScratch)) + cap(c.meta)*int(unsafe.Sizeof(lineMeta{}))
}
