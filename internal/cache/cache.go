// Package cache models the two-level cache hierarchy the paper's
// evaluation observes (Section 4): set-associative write-back caches
// with configurable line size, MSHRs that combine misses to the same
// line (the paper's partial vs. full miss distinction, Figure 6a),
// software block prefetch (Section 5.2), and bandwidth accounting for
// both the primary↔secondary and secondary↔memory links (Figure 6b).
//
// Timing is expressed functionally: every access takes the current
// cycle and returns the cycle at which its data is available. State
// (tags, LRU, MSHRs, bus occupancy) advances as calls arrive in
// non-decreasing time order, which the in-order-graduation CPU model
// guarantees to first order.
package cache

import (
	"fmt"
	"math/bits"

	"memfwd/internal/obs"
)

// Kind distinguishes demand loads, demand stores, and prefetches for
// the per-class statistics the figures need.
type Kind uint8

const (
	Load Kind = iota
	Store
	Prefetch
)

// Outcome classifies one access the way Figure 6(a) does.
type Outcome uint8

const (
	Hit Outcome = iota
	// PartialMiss combined with an outstanding miss to the same line
	// and so does not necessarily suffer the full miss latency.
	PartialMiss
	// FullMiss did not combine with any access and suffers the full
	// latency.
	FullMiss
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case PartialMiss:
		return "partial"
	default:
		return "full"
	}
}

// Config sizes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	LineSize   int
	Assoc      int
	HitLatency int64
	MSHRs      int
	// TransferBytesPerCycle models the fill port to the level above:
	// a fill of one line occupies ceil(LineSize/Transfer) cycles on top
	// of the hit latency, so long lines genuinely cost more to move.
	TransferBytesPerCycle int
}

// Stats for one level, split by access kind.
type Stats struct {
	Hits          [3]uint64 // indexed by Kind
	PartialMisses [3]uint64
	FullMisses    [3]uint64
	WriteBacks    uint64
	// BytesFromNext counts fill traffic from the level below;
	// BytesToNext counts writeback traffic to it. Their sum is the
	// bandwidth on the link below this level (Figure 6b).
	BytesFromNext uint64
	BytesToNext   uint64
	// MSHRStallCycles accumulates delay imposed because all MSHRs were
	// busy when a demand miss arrived.
	MSHRStallCycles   int64
	PrefetchesDropped uint64 // prefetches skipped for lack of an MSHR
}

// Misses returns partial+full misses for kind k.
func (s *Stats) Misses(k Kind) uint64 { return s.PartialMisses[k] + s.FullMisses[k] }

type mshr struct {
	lineAddr uint64
	ready    int64
	inUse    bool
}

// MaxMSHRs bounds Config.MSHRs: the set of orphaned MSHRs (see
// outstanding) is one 64-bit mask.
const MaxMSHRs = 64

// Cache is one set-associative write-back, write-allocate level.
type Cache struct {
	cfg Config
	// The level below: the next cache, or main memory when next is nil.
	next *Cache
	mm   *MainMemory

	// The line array, split by field. All sets sit contiguously, assoc
	// ways per set, so set selection is one index computation; a lookup
	// reads only tags and valid, and victim choice only valid and lru
	// (only lru once every line is valid). An invalidated line keeps
	// its tag and LRU stamp: the snapshot encoding carries both.
	tags  []uint64
	valid []bool
	dirty []bool
	lru   []int64
	// slot[i] is the MSHR that last filled line i. It is an index
	// derived from the MSHR file, never encoded: Restore rebuilds it.
	slot  []uint8
	assoc int
	// invalid counts invalid lines. Once every line is valid (a warm
	// cache with no coherence invalidations), victim choice is the
	// least recently used way and reads only lru.
	invalid int

	mshrs []mshr
	// orphans has bit s set when MSHR s is in use but the line it
	// filled was evicted or invalidated before the fill completed.
	orphans uint64

	setShift uint
	setMask  uint64
	lineMask uint64
	xfer     int64 // cycles a fill occupies the port to the level above

	clock int64 // monotone access clock for LRU

	trace *obs.Tracer
	level uint8

	Stats Stats

	// The pad rounds the struct up to whole 64-byte host cache lines
	// (TestCacheSizeIsWholeHostLines), so the allocator never puts two
	// Caches on one line: caches of two machines stepped on two host
	// CPUs at once would otherwise slow each other down on every fill.
	_ [32]byte
}

// New builds a cache level that fills from next, or from main memory
// mm when next is nil (the last level). It panics on non-power-of-two
// geometry, more than MaxMSHRs MSHRs, or a missing or doubled level
// below, which are configuration bugs.
func New(cfg Config, next *Cache, mm *MainMemory) *Cache {
	if cfg.LineSize <= 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineSize))
	}
	nLines := cfg.SizeBytes / cfg.LineSize
	if cfg.Assoc <= 0 || nLines%cfg.Assoc != 0 {
		panic(fmt.Sprintf("cache %s: bad geometry size=%d line=%d assoc=%d", cfg.Name, cfg.SizeBytes, cfg.LineSize, cfg.Assoc))
	}
	nSets := nLines / cfg.Assoc
	if nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: %d sets not a power of two", cfg.Name, nSets))
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 8
	}
	if cfg.MSHRs > MaxMSHRs {
		panic(fmt.Sprintf("cache %s: %d MSHRs exceed the maximum %d", cfg.Name, cfg.MSHRs, MaxMSHRs))
	}
	if (next == nil) == (mm == nil) {
		panic(fmt.Sprintf("cache %s: needs exactly one of a next level and main memory", cfg.Name))
	}
	if cfg.TransferBytesPerCycle <= 0 {
		cfg.TransferBytesPerCycle = 16
	}
	c := &Cache{
		cfg:      cfg,
		next:     next,
		mm:       mm,
		tags:     make([]uint64, nLines),
		valid:    make([]bool, nLines),
		dirty:    make([]bool, nLines),
		lru:      make([]int64, nLines),
		slot:     make([]uint8, nLines),
		assoc:    cfg.Assoc,
		invalid:  nLines,
		mshrs:    make([]mshr, cfg.MSHRs),
		lineMask: ^uint64(cfg.LineSize - 1),
		setMask:  uint64(nSets - 1),
		xfer:     int64((cfg.LineSize + cfg.TransferBytesPerCycle - 1) / cfg.TransferBytesPerCycle),
	}
	for s := uint(0); (1 << s) < cfg.LineSize; s++ {
		c.setShift = s + 1
	}
	return c
}

// SetTracer attaches t (nil detaches) and tags this cache's miss
// events with the given hierarchy level (1 = primary, 2 = secondary).
func (c *Cache) SetTracer(t *obs.Tracer, level uint8) {
	c.trace = t
	c.level = level
}

// RegisterMetrics exposes this level's statistics as registry views
// under the given prefix (e.g. "l1"). The Stats struct remains the
// source of truth; views read it lazily at snapshot time.
func (c *Cache) RegisterMetrics(r *obs.Registry, prefix string) {
	for _, k := range []struct {
		kind Kind
		name string
	}{{Load, "load"}, {Store, "store"}, {Prefetch, "prefetch"}} {
		kind := k.kind
		r.GaugeFunc(prefix+".hits."+k.name, func() float64 { return float64(c.Stats.Hits[kind]) })
		r.GaugeFunc(prefix+".misses.partial."+k.name, func() float64 { return float64(c.Stats.PartialMisses[kind]) })
		r.GaugeFunc(prefix+".misses.full."+k.name, func() float64 { return float64(c.Stats.FullMisses[kind]) })
	}
	r.GaugeFunc(prefix+".writebacks", func() float64 { return float64(c.Stats.WriteBacks) })
	r.GaugeFunc(prefix+".bytes.from_next", func() float64 { return float64(c.Stats.BytesFromNext) })
	r.GaugeFunc(prefix+".bytes.to_next", func() float64 { return float64(c.Stats.BytesToNext) })
	r.GaugeFunc(prefix+".mshr.stall_cycles", func() float64 { return float64(c.Stats.MSHRStallCycles) })
	r.GaugeFunc(prefix+".prefetches.dropped", func() float64 { return float64(c.Stats.PrefetchesDropped) })
}

// LineSize returns the configured line size in bytes.
func (c *Cache) LineSize() int { return c.cfg.LineSize }

// LineAddr returns the line-aligned address containing a.
func (c *Cache) LineAddr(a uint64) uint64 { return a & c.lineMask }

// setBase returns the index of the first way of lineAddr's set.
func (c *Cache) setBase(lineAddr uint64) int {
	return int((lineAddr>>c.setShift)&c.setMask) * c.assoc
}

// lookup returns the index of the valid line holding lineAddr, or -1.
// Whether an access hits, and in which way, is data the host cannot
// predict, so every way is compared without a branch; the scan runs
// backwards so the first valid match wins, as an early exit would.
func (c *Cache) lookup(lineAddr uint64) int {
	base := c.setBase(lineAddr)
	i := -1
	for w := base + c.assoc - 1; w >= base; w-- {
		if c.tags[w]^lineAddr|uint64(invalidBit(c.valid[w])) == 0 {
			i = w
		}
	}
	return i
}

// invalidBit is 1 for an invalid line and 0 for a valid one.
func invalidBit(valid bool) uint8 {
	if valid {
		return 0
	}
	return 1
}

// outstanding returns the MSHR whose fill of line i (holding lineAddr)
// is still in flight at cycle now, or nil. It answers exactly what a
// scan of the whole MSHR file in slot order would: the lowest-numbered
// in-use entry for lineAddr decides, and if that entry has expired by
// now it is cleared and the answer is nil (even when a later entry for
// the same line is still in flight).
//
// The scan's candidates are every in-use entry for lineAddr. One is the
// entry that filled line i (slot[i]); any other is an orphan, left in
// flight by an earlier copy of the line that was evicted or invalidated
// before its fill completed (evict marks it). An in-use entry is never
// anything else, because a line is only filled while absent. So the own
// slot plus the orphans for lineAddr, lowest slot first, reproduce the
// scan, its answer and its one side effect, at any timestamp order.
func (c *Cache) outstanding(i int, lineAddr uint64, now int64) *mshr {
	s := -1
	if own := int(c.slot[i]); c.mshrs[own].inUse && c.mshrs[own].lineAddr == lineAddr {
		s = own
	}
	for o := c.orphans; o != 0; o &= o - 1 {
		k := bits.TrailingZeros64(o)
		if s >= 0 && k > s {
			break
		}
		if c.mshrs[k].lineAddr == lineAddr {
			s = k
			break
		}
	}
	if s < 0 {
		return nil
	}
	m := &c.mshrs[s]
	if m.ready <= now {
		c.free(s)
		return nil
	}
	return m
}

// free retires MSHR s.
func (c *Cache) free(s int) {
	c.mshrs[s].inUse = false
	c.orphans &^= 1 << s
}

// allocMSHR grabs the first MSHR that is free or has expired by cycle
// now, clearing it. If all are busy it returns -1 and the stall needed
// until the earliest one retires (demand misses wait; prefetches drop
// instead).
func (c *Cache) allocMSHR(now int64) (int, int64) {
	var earliest int64 = 1<<62 - 1
	for s := range c.mshrs {
		m := &c.mshrs[s]
		if !m.inUse {
			return s, 0
		}
		if m.ready <= now {
			c.free(s)
			return s, 0
		}
		if m.ready < earliest {
			earliest = m.ready
		}
	}
	return -1, earliest - now
}

// evict drops valid line i: an MSHR still filling it becomes an
// orphan.
func (c *Cache) evict(i int) {
	if own := c.slot[i]; c.mshrs[own].inUse && c.mshrs[own].lineAddr == c.tags[i] {
		c.orphans |= 1 << own
	}
	c.valid[i] = false
	c.invalid++
}

// fill brings lineAddr in from the next level starting at cycle now
// through MSHR s, evicting as needed, and returns the arrival cycle.
func (c *Cache) fill(lineAddr uint64, now int64, dirty bool, s int) int64 {
	var ready int64
	if c.next != nil {
		ready = c.next.Fetch(lineAddr, now)
	} else {
		ready = c.mm.Fetch(lineAddr, now)
	}
	ready += c.xfer
	c.Stats.BytesFromNext += uint64(c.cfg.LineSize)

	v := c.victim(c.setBase(lineAddr))
	if c.valid[v] {
		c.evict(v)
		if c.dirty[v] {
			c.Stats.WriteBacks++
			c.Stats.BytesToNext += uint64(c.cfg.LineSize)
			c.writeBackNext(c.tags[v], now)
		}
	}
	c.invalid-- // v is valid again
	c.tags[v] = lineAddr
	c.valid[v] = true
	c.dirty[v] = dirty
	c.lru[v] = c.clock
	c.slot[v] = uint8(s)
	return ready
}

// victim picks the way of the set starting at base that a fill
// replaces: the first invalid way, else the first least recently used.
func (c *Cache) victim(base int) int {
	v := base
	if c.invalid == 0 {
		best := c.lru[base]
		for i := base + 1; i < base+c.assoc; i++ {
			if l := c.lru[i]; l < best {
				best, v = l, i
			}
		}
		return v
	}
	for i := base; i < base+c.assoc; i++ {
		if !c.valid[i] {
			return i
		}
		if c.lru[i] < c.lru[v] {
			v = i
		}
	}
	return v
}

// writeBackNext hands a dirty line to the level below.
func (c *Cache) writeBackNext(lineAddr uint64, now int64) {
	if c.next != nil {
		c.next.WriteBack(lineAddr, now)
	} else {
		c.mm.WriteBack(lineAddr, now)
	}
}

// Access performs a demand access of the given kind to address a at
// cycle now, returning the data-ready cycle and the miss classification.
func (c *Cache) Access(a uint64, kind Kind, now int64) (ready int64, out Outcome) {
	c.clock++
	lineAddr := a & c.lineMask
	if i := c.lookup(lineAddr); i >= 0 {
		c.lru[i] = c.clock
		if kind == Store {
			c.dirty[i] = true
		}
		if m := c.outstanding(i, lineAddr, now); m != nil {
			// Tag present but fill in flight: combines with the
			// outstanding miss (partial miss).
			c.Stats.PartialMisses[kind]++
			if c.trace != nil {
				c.trace.Emit(obs.Event{Cycle: now, Kind: obs.KCacheMiss,
					Level: c.level, Class: uint8(kind), Flag: true, Addr: lineAddr})
			}
			return maxI64(m.ready, now+c.cfg.HitLatency), PartialMiss
		}
		c.Stats.Hits[kind]++
		return now + c.cfg.HitLatency, Hit
	}
	// Full miss.
	s, stall := c.allocMSHR(now)
	if s < 0 {
		c.Stats.MSHRStallCycles += stall
		now += stall
		s, _ = c.allocMSHR(now)
		if s < 0 {
			panic("cache: MSHR still unavailable after stall")
		}
	}
	c.Stats.FullMisses[kind]++
	if c.trace != nil {
		c.trace.Emit(obs.Event{Cycle: now, Kind: obs.KCacheMiss,
			Level: c.level, Class: uint8(kind), Addr: lineAddr})
	}
	ready = c.fill(lineAddr, now+c.cfg.HitLatency, kind == Store, s)
	c.mshrs[s] = mshr{lineAddr: lineAddr, ready: ready, inUse: true}
	return ready, FullMiss
}

// PrefetchLine initiates a non-blocking fill of the line containing a at
// cycle now. It is dropped silently when the line is already present or
// in flight, or when no MSHR is free — exactly the behaviour software
// prefetch instructions have on real machines.
func (c *Cache) PrefetchLine(a uint64, now int64) {
	c.clock++
	lineAddr := a & c.lineMask
	if i := c.lookup(lineAddr); i >= 0 {
		if c.outstanding(i, lineAddr, now) == nil {
			c.Stats.Hits[Prefetch]++
		}
		return
	}
	s, _ := c.allocMSHR(now)
	if s < 0 {
		c.Stats.PrefetchesDropped++
		return
	}
	c.Stats.FullMisses[Prefetch]++
	ready := c.fill(lineAddr, now+c.cfg.HitLatency, false, s)
	c.mshrs[s] = mshr{lineAddr: lineAddr, ready: ready, inUse: true}
}

// Fetch serves a fill for the level above.
func (c *Cache) Fetch(lineAddr uint64, now int64) int64 {
	ready, _ := c.Access(lineAddr, Load, now)
	return ready
}

// WriteBack absorbs a dirty line from the level above.
func (c *Cache) WriteBack(lineAddr uint64, now int64) {
	c.clock++
	if i := c.lookup(lineAddr & c.lineMask); i >= 0 {
		c.dirty[i] = true
		c.lru[i] = c.clock
		return
	}
	// Victim missed here: forward straight to the next level (no
	// write-allocate for victims, avoiding pollution).
	c.Stats.BytesToNext += uint64(c.cfg.LineSize)
	c.writeBackNext(lineAddr, now)
}

// Invalidate drops the line containing a if present, returning whether
// it was (and discarding dirty data — the coherence layer is
// responsible for any transfer). Used by the multiprocessor extension.
func (c *Cache) Invalidate(a uint64) bool {
	if i := c.lookup(a & c.lineMask); i >= 0 {
		c.evict(i)
		c.dirty[i] = false
		return true
	}
	return false
}

// Present reports whether the line containing a is resident.
func (c *Cache) Present(a uint64) bool { return c.lookup(a&c.lineMask) >= 0 }

// ForEachLine calls fn for every valid line with its line-aligned
// address and dirty bit. Invariant checkers use it to verify that the
// timing model only caches lines of memory that functionally exists.
func (c *Cache) ForEachLine(fn func(lineAddr uint64, dirty bool)) {
	for i, v := range c.valid {
		if v {
			fn(c.tags[i], c.dirty[i])
		}
	}
}

// Contents returns the number of valid lines (test support).
func (c *Cache) Contents() int {
	n := 0
	for _, v := range c.valid {
		if v {
			n++
		}
	}
	return n
}

// MainMemory terminates the hierarchy: fixed access latency plus a
// shared bus whose occupancy scales with the line size, so that long
// lines consume real bandwidth (the effect behind Figure 6b). Its
// geometry is fixed at construction.
type MainMemory struct {
	latency       int64
	bytesPerCycle int
	lineSize      int
	occupy        int64 // bus cycles one line transfer takes
	busFree       int64

	BytesRead    uint64
	BytesWritten uint64

	// TierLatency, when non-nil, overrides the flat latency per line
	// with the miss penalty of the memory tier owning that address
	// (mem.Tiers.LineLatency). Nil is the untiered flat-DRAM model.
	// The hook is derived from machine configuration, not simulation
	// state, so snapshots neither save nor restore it.
	TierLatency func(lineAddr uint64) int64
}

// NewMainMemory builds the DRAM model.
func NewMainMemory(latency int64, bytesPerCycle, lineSize int) *MainMemory {
	if bytesPerCycle <= 0 {
		bytesPerCycle = 8
	}
	return &MainMemory{
		latency:       latency,
		bytesPerCycle: bytesPerCycle,
		lineSize:      lineSize,
		occupy:        int64((lineSize + bytesPerCycle - 1) / bytesPerCycle),
	}
}

func (mm *MainMemory) transfer(now int64) int64 {
	start := maxI64(now, mm.busFree)
	mm.busFree = start + mm.occupy
	return mm.busFree
}

// Fetch returns the cycle the requested line arrives from DRAM.
func (mm *MainMemory) Fetch(lineAddr uint64, now int64) int64 {
	mm.BytesRead += uint64(mm.lineSize)
	lat := mm.latency
	if mm.TierLatency != nil {
		lat = mm.TierLatency(lineAddr)
	}
	return mm.transfer(now + lat)
}

// WriteBack absorbs a dirty line, occupying the bus.
func (mm *MainMemory) WriteBack(lineAddr uint64, now int64) {
	mm.BytesWritten += uint64(mm.lineSize)
	mm.transfer(now)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
