package cache

import "fmt"

// CacheSnapshot is an opaque deep copy of a Cache's timing state: the
// tag array (tag/valid/dirty/LRU per line), the MSHR file, the LRU
// clock, and the accumulated Stats. The caches are tag-only (all data
// lives in mem.Memory), so this plus the MemorySnapshot is the complete
// memory-hierarchy state (DESIGN.md §10). The per-line MSHR index and
// orphan set are derived from the lines and the MSHR file, so they are
// not captured; Restore rebuilds them.
type CacheSnapshot struct {
	cfg   Config
	tags  []uint64
	valid []bool
	dirty []bool
	lru   []int64
	mshrs []mshr
	clock int64
	stats Stats
}

// Snapshot captures a deep copy of the cache's timing state.
func (c *Cache) Snapshot() *CacheSnapshot {
	return &CacheSnapshot{
		cfg:   c.cfg,
		tags:  append([]uint64(nil), c.tags...),
		valid: append([]bool(nil), c.valid...),
		dirty: append([]bool(nil), c.dirty...),
		lru:   append([]int64(nil), c.lru...),
		mshrs: append([]mshr(nil), c.mshrs...),
		clock: c.clock,
		stats: c.Stats,
	}
}

// Restore installs a snapshot onto c. The geometry (Config) must match
// the snapshot's — set indexing and associativity are derived from it —
// so a mismatch is reported as an error. The next-level and tracer
// bindings are wiring of the target hierarchy and are preserved.
func (c *Cache) Restore(s *CacheSnapshot) error {
	if c.cfg != s.cfg {
		return fmt.Errorf("cache: %s restore config mismatch: have %+v, snapshot %+v", c.cfg.Name, c.cfg, s.cfg)
	}
	copy(c.tags, s.tags)
	copy(c.valid, s.valid)
	copy(c.dirty, s.dirty)
	copy(c.lru, s.lru)
	copy(c.mshrs, s.mshrs)
	c.clock = s.clock
	c.Stats = s.stats
	c.rebuildIndex()
	return nil
}

// rebuildIndex derives the invalid-line count, each line's MSHR slot
// and the orphan set from the lines and the MSHR file. Of the in-use
// entries for a resident line, the lowest becomes the line's own and
// the rest are orphans; every in-use entry for an absent line is an
// orphan. outstanding then sees every in-use entry for the line it
// asks about, lowest first, which is all its exactness needs.
func (c *Cache) rebuildIndex() {
	c.invalid = 0
	for _, v := range c.valid {
		if !v {
			c.invalid++
		}
	}
	clear(c.slot)
	c.orphans = 0
	for s := len(c.mshrs) - 1; s >= 0; s-- {
		if m := &c.mshrs[s]; m.inUse {
			c.orphans |= 1 << s
			if i := c.lookup(m.lineAddr); i >= 0 {
				c.slot[i] = uint8(s)
			}
		}
	}
	for s := range c.mshrs {
		if m := &c.mshrs[s]; m.inUse {
			if i := c.lookup(m.lineAddr); i >= 0 && int(c.slot[i]) == s {
				c.orphans &^= 1 << s
			}
		}
	}
}

// MainMemorySnapshot captures a MainMemory's bus occupancy and traffic
// counters, with the geometry it was taken under.
type MainMemorySnapshot struct {
	latency       int64
	bytesPerCycle int
	lineSize      int
	busFree       int64
	bytesRead     uint64
	bytesWritten  uint64
}

// Snapshot captures the main-memory model's state.
func (mm *MainMemory) Snapshot() MainMemorySnapshot {
	return MainMemorySnapshot{
		latency:       mm.latency,
		bytesPerCycle: mm.bytesPerCycle,
		lineSize:      mm.lineSize,
		busFree:       mm.busFree,
		bytesRead:     mm.BytesRead,
		bytesWritten:  mm.BytesWritten,
	}
}

// CheckGeometry reports, naming the field, where the snapshot's
// geometry differs from mm's.
func (s *MainMemorySnapshot) CheckGeometry(mm *MainMemory) error {
	switch {
	case s.latency != mm.latency:
		return fmt.Errorf("cache: main memory latency %d, want %d", s.latency, mm.latency)
	case s.bytesPerCycle != mm.bytesPerCycle:
		return fmt.Errorf("cache: main memory bus width %d bytes per cycle, want %d", s.bytesPerCycle, mm.bytesPerCycle)
	case s.lineSize != mm.lineSize:
		return fmt.Errorf("cache: main memory line size %d, want %d", s.lineSize, mm.lineSize)
	}
	return nil
}

// Restore installs a snapshot onto mm. The geometry is fixed at
// construction, so a snapshot taken under another one is an error.
func (mm *MainMemory) Restore(s MainMemorySnapshot) error {
	if err := s.CheckGeometry(mm); err != nil {
		return err
	}
	mm.busFree = s.busFree
	mm.BytesRead = s.bytesRead
	mm.BytesWritten = s.bytesWritten
	return nil
}
