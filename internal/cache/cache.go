// Package cache models the memory hierarchy of the paper's Table 2:
// split L1 instruction and data caches, a unified L2, and main memory.
//
// Caches are set-associative with true-LRU replacement and are timing
// models only: they track which lines are resident and answer "how many
// cycles does this access take", without storing data. Writes are
// write-back write-allocate. The hierarchy is sequential: an L1 miss pays
// the L1 fill time plus the L2 access, and an L2 miss adds memory latency.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level. Fields are declared in JSON key
// order, so json.Marshal writes the canonical encoding a content key
// hashes.
type Config struct {
	Assoc int
	// HitLatency is the access time in cycles on a hit.
	HitLatency int
	LineBytes  int
	Name       string
	SizeBytes  int
}

// Validate reports the first configuration error.
func (c *Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines == 0 || lines%c.Assoc != 0 {
		return fmt.Errorf("cache %s: %d lines not divisible by assoc %d", c.Name, lines, c.Assoc)
	}
	sets := lines / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: %d sets not a power of two", c.Name, sets)
	}
	if c.HitLatency < 0 {
		return fmt.Errorf("cache %s: negative latency", c.Name)
	}
	return nil
}

// Stats counts accesses to one cache level.
type Stats struct {
	Accesses  uint64
	Misses    uint64
	Evictions uint64
	Writeback uint64
}

// MissRate returns misses/accesses, or 0 with no accesses.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is one set-associative level. Not safe for concurrent use.
type Cache struct {
	cfg       Config
	sets      int
	assoc     int
	lineShift uint
	tags      []uint64 // tag+1; 0 = invalid
	dirty     []bool
	// lru holds each line's last-touch stamp from lruClock, which counts
	// accesses: 64 bits never wrap within a run, so the smallest stamp in
	// a set is always its least recently used line.
	lru      []uint64
	lruClock uint64
	stats    Stats
}

// New builds a cache; it panics on an invalid configuration (configurations
// are programmer-supplied constants, not runtime input).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	c := &Cache{
		cfg:   cfg,
		sets:  lines / cfg.Assoc,
		assoc: cfg.Assoc,
		tags:  make([]uint64, lines),
		dirty: make([]bool, lines),
		lru:   make([]uint64, lines),
	}
	c.lineShift = uint(bits.TrailingZeros64(uint64(cfg.LineBytes)))
	return c
}

// Reset returns the cache to its just-constructed state for cfg, reusing
// the line arrays when the geometry allows. Panics on invalid
// configuration, like New.
func (c *Cache) Reset(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if cap(c.tags) < lines {
		c.tags = make([]uint64, lines)
		c.dirty = make([]bool, lines)
		c.lru = make([]uint64, lines)
	} else {
		c.tags = c.tags[:lines]
		c.dirty = c.dirty[:lines]
		c.lru = c.lru[:lines]
		for i := range c.tags {
			c.tags[i] = 0
			c.dirty[i] = false
			c.lru[i] = 0
		}
	}
	c.cfg = cfg
	c.sets = lines / cfg.Assoc
	c.assoc = cfg.Assoc
	c.lruClock = 0
	c.stats = Stats{}
	c.lineShift = uint(bits.TrailingZeros64(uint64(cfg.LineBytes)))
}

// Stats returns a copy of the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// lookup finds addr's way within its set, or -1.
func (c *Cache) lookup(addr uint64) (setBase int, way int) {
	line := addr >> c.lineShift
	set := int(line & uint64(c.sets-1))
	tag := line + 1 // +1 so a zero word means "invalid"
	setBase = set * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.tags[setBase+w] == tag {
			return setBase, w
		}
	}
	return setBase, -1
}

// Access performs a read or write of addr. It returns whether the access
// hit and, on a miss, the address of the victim line if a dirty line was
// evicted (needsWriteback). The caller (the Hierarchy) turns misses into
// lower-level accesses.
func (c *Cache) Access(addr uint64, write bool) (hit bool, writebackAddr uint64, needsWriteback bool) {
	c.stats.Accesses++
	setBase, way := c.lookup(addr)
	line := addr >> c.lineShift
	tag := line + 1
	if way >= 0 {
		c.lruClock++
		c.lru[setBase+way] = c.lruClock
		if write {
			c.dirty[setBase+way] = true
		}
		return true, 0, false
	}
	c.stats.Misses++
	// Choose LRU victim.
	victim := 0
	for w := 1; w < c.assoc; w++ {
		if c.lru[setBase+w] < c.lru[setBase+victim] {
			victim = w
		}
	}
	if c.tags[setBase+victim] != 0 {
		c.stats.Evictions++
		if c.dirty[setBase+victim] {
			c.stats.Writeback++
			needsWriteback = true
			victimLine := c.tags[setBase+victim] - 1
			writebackAddr = victimLine << c.lineShift
		}
	}
	c.tags[setBase+victim] = tag
	c.dirty[setBase+victim] = write
	c.lruClock++
	c.lru[setBase+victim] = c.lruClock
	return false, writebackAddr, needsWriteback
}

// Contains reports whether addr's line is resident (no state change).
func (c *Cache) Contains(addr uint64) bool {
	_, way := c.lookup(addr)
	return way >= 0
}

// HierarchyConfig sizes the full memory system. Fields are declared in
// JSON key order, so json.Marshal writes the canonical encoding a content
// key hashes.
type HierarchyConfig struct {
	// ClusterTransit is the one-way latency between any cluster and the
	// centralized cache structures (paper: 1 cycle each way).
	ClusterTransit int
	// DCachePorts is the number of L1D read/write ports per cycle.
	DCachePorts int
	L1D         Config
	L1I         Config
	L2          Config
	// L2InterchunkLatency models the 2-cycle interchunk transfer of the
	// paper's L2 (added once per L1 miss that hits in L2).
	L2InterchunkLatency int
	// L2MissLatency is the additional latency of a memory access on an
	// L2 miss (paper: 100 cycles).
	L2MissLatency int
}

// Validate reports the first configuration error across the hierarchy.
func (h *HierarchyConfig) Validate() error {
	for _, c := range []*Config{&h.L1I, &h.L1D, &h.L2} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	if h.L2MissLatency < 0 || h.L2InterchunkLatency < 0 {
		return fmt.Errorf("cache: negative L2 latency")
	}
	if h.DCachePorts < 1 {
		return fmt.Errorf("cache: %d D-cache ports (need >= 1)", h.DCachePorts)
	}
	if h.ClusterTransit < 0 {
		return fmt.Errorf("cache: negative cluster transit latency")
	}
	return nil
}

// DefaultHierarchy matches Table 2: 64KB 2-way 32B L1I (1 cycle); 32KB
// 4-way 32B L1D (2 cycles, 4 ports); 512KB 4-way 64B unified L2 (10 cycles
// hit, 100 miss, 2 interchunk); 1-cycle transit to/from the D-cache.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1I:                 Config{Name: "L1I", SizeBytes: 64 << 10, LineBytes: 32, Assoc: 2, HitLatency: 1},
		L1D:                 Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 32, Assoc: 4, HitLatency: 2},
		L2:                  Config{Name: "L2", SizeBytes: 512 << 10, LineBytes: 64, Assoc: 4, HitLatency: 10},
		L2MissLatency:       100,
		L2InterchunkLatency: 2,
		DCachePorts:         4,
		ClusterTransit:      1,
	}
}

// Hierarchy is the full memory system timing model.
type Hierarchy struct {
	cfg HierarchyConfig
	l1i *Cache
	l1d *Cache
	l2  *Cache
}

// NewHierarchy builds the hierarchy. Panics on invalid configuration.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		cfg: cfg,
		l1i: New(cfg.L1I),
		l1d: New(cfg.L1D),
		l2:  New(cfg.L2),
	}
}

// Reset returns the hierarchy to its just-constructed state for cfg,
// reusing the level arrays where possible.
func (h *Hierarchy) Reset(cfg HierarchyConfig) {
	h.cfg = cfg
	h.l1i.Reset(cfg.L1I)
	h.l1d.Reset(cfg.L1D)
	h.l2.Reset(cfg.L2)
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// L1I returns the instruction cache (for stats inspection).
func (h *Hierarchy) L1I() *Cache { return h.l1i }

// L1D returns the data cache.
func (h *Hierarchy) L1D() *Cache { return h.l1d }

// L2 returns the unified second level.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// fill runs an access through L2 on an L1 miss and returns the added cycles.
func (h *Hierarchy) fill(addr uint64, write bool) int {
	hit, wb, needWB := h.l2.Access(addr, write)
	lat := h.cfg.L2.HitLatency + h.cfg.L2InterchunkLatency
	if !hit {
		lat += h.cfg.L2MissLatency
	}
	if needWB {
		// Writebacks from L2 go to memory off the critical path; charge
		// nothing but keep the address flowing for the statistics.
		_ = wb
	}
	return lat
}

// InstFetch returns the latency in cycles to fetch the line holding pc.
func (h *Hierarchy) InstFetch(pc uint64) int {
	hit, _, _ := h.l1i.Access(pc, false)
	lat := h.cfg.L1I.HitLatency
	if !hit {
		lat += h.fill(pc, false)
	}
	return lat
}

// DataAccess returns the latency in cycles for a load (write=false) or
// store (write=true) to addr, excluding cluster↔cache transit (the core
// adds ClusterTransit on each side, per the paper's fixed 1-cycle
// assumption). An L1D writeback to L2 is performed but charged off the
// critical path.
func (h *Hierarchy) DataAccess(addr uint64, write bool) int {
	hit, wbAddr, needWB := h.l1d.Access(addr, write)
	lat := h.cfg.L1D.HitLatency
	if !hit {
		lat += h.fill(addr, write)
	}
	if needWB {
		h.l2.Access(wbAddr, true)
	}
	return lat
}
