package cache

import "memfwd/internal/wire"

// refCache is the reference the cache model is held to: the level as
// it was before the per-line MSHR index and the field-split line
// arrays, with one 24-byte record per line, an MSHR scan on every tag
// hit, a Backend interface below, and a main memory that divides on
// every transfer. The differential fuzzer (FuzzCacheDifferential) runs
// it beside a Cache and compares every answer, counter and encoded byte.
type refCache struct {
	cfg   Config
	next  refBackend
	lines []refLine
	assoc int
	mshrs []mshr

	setShift uint
	setMask  uint64
	lineMask uint64

	clock int64

	Stats Stats
}

type refBackend interface {
	Fetch(lineAddr uint64, now int64) int64
	WriteBack(lineAddr uint64, now int64)
}

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   int64
}

func newRefCache(cfg Config, next refBackend) *refCache {
	nLines := cfg.SizeBytes / cfg.LineSize
	nSets := nLines / cfg.Assoc
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 8
	}
	if cfg.TransferBytesPerCycle <= 0 {
		cfg.TransferBytesPerCycle = 16
	}
	c := &refCache{
		cfg:      cfg,
		next:     next,
		lines:    make([]refLine, nLines),
		assoc:    cfg.Assoc,
		mshrs:    make([]mshr, cfg.MSHRs),
		lineMask: ^uint64(cfg.LineSize - 1),
		setMask:  uint64(nSets - 1),
	}
	for s := uint(0); (1 << s) < cfg.LineSize; s++ {
		c.setShift = s + 1
	}
	return c
}

func (c *refCache) set(lineAddr uint64) []refLine {
	s := int((lineAddr >> c.setShift) & c.setMask)
	return c.lines[s*c.assoc : (s+1)*c.assoc]
}

func (c *refCache) lookup(lineAddr uint64) *refLine {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) outstanding(lineAddr uint64, now int64) *mshr {
	for i := range c.mshrs {
		m := &c.mshrs[i]
		if m.inUse && m.lineAddr == lineAddr {
			if m.ready <= now {
				m.inUse = false
				return nil
			}
			return m
		}
	}
	return nil
}

func (c *refCache) allocMSHR(now int64) (*mshr, int64) {
	var earliest int64 = 1<<62 - 1
	for i := range c.mshrs {
		m := &c.mshrs[i]
		if m.inUse && m.ready <= now {
			m.inUse = false
		}
		if !m.inUse {
			return m, 0
		}
		if m.ready < earliest {
			earliest = m.ready
		}
	}
	return nil, earliest - now
}

func (c *refCache) fill(lineAddr uint64, now int64, dirty bool) int64 {
	ready := c.next.Fetch(lineAddr, now)
	ready += int64((c.cfg.LineSize + c.cfg.TransferBytesPerCycle - 1) / c.cfg.TransferBytesPerCycle)
	c.Stats.BytesFromNext += uint64(c.cfg.LineSize)

	set := c.set(lineAddr)
	victim := &set[0]
	for i := range set {
		if !set[i].valid {
			victim = &set[i]
			break
		}
		if set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	if victim.valid && victim.dirty {
		c.Stats.WriteBacks++
		c.Stats.BytesToNext += uint64(c.cfg.LineSize)
		c.next.WriteBack(victim.tag, now)
	}
	*victim = refLine{tag: lineAddr, valid: true, dirty: dirty, lru: c.clock}
	return ready
}

func (c *refCache) Access(a uint64, kind Kind, now int64) (ready int64, out Outcome) {
	c.clock++
	lineAddr := a & c.lineMask
	if ln := c.lookup(lineAddr); ln != nil {
		ln.lru = c.clock
		if kind == Store {
			ln.dirty = true
		}
		if m := c.outstanding(lineAddr, now); m != nil {
			c.Stats.PartialMisses[kind]++
			return maxI64(m.ready, now+c.cfg.HitLatency), PartialMiss
		}
		c.Stats.Hits[kind]++
		return now + c.cfg.HitLatency, Hit
	}
	m, stall := c.allocMSHR(now)
	if m == nil {
		c.Stats.MSHRStallCycles += stall
		now += stall
		m, _ = c.allocMSHR(now)
		if m == nil {
			panic("cache: MSHR still unavailable after stall")
		}
	}
	c.Stats.FullMisses[kind]++
	ready = c.fill(lineAddr, now+c.cfg.HitLatency, kind == Store)
	*m = mshr{lineAddr: lineAddr, ready: ready, inUse: true}
	return ready, FullMiss
}

func (c *refCache) PrefetchLine(a uint64, now int64) {
	c.clock++
	lineAddr := a & c.lineMask
	if ln := c.lookup(lineAddr); ln != nil {
		if c.outstanding(lineAddr, now) == nil {
			c.Stats.Hits[Prefetch]++
		}
		return
	}
	m, _ := c.allocMSHR(now)
	if m == nil {
		c.Stats.PrefetchesDropped++
		return
	}
	c.Stats.FullMisses[Prefetch]++
	ready := c.fill(lineAddr, now+c.cfg.HitLatency, false)
	*m = mshr{lineAddr: lineAddr, ready: ready, inUse: true}
}

func (c *refCache) Fetch(lineAddr uint64, now int64) int64 {
	ready, _ := c.Access(lineAddr, Load, now)
	return ready
}

func (c *refCache) WriteBack(lineAddr uint64, now int64) {
	c.clock++
	if ln := c.lookup(lineAddr & c.lineMask); ln != nil {
		ln.dirty = true
		ln.lru = c.clock
		return
	}
	c.Stats.BytesToNext += uint64(c.cfg.LineSize)
	c.next.WriteBack(lineAddr, now)
}

func (c *refCache) Invalidate(a uint64) bool {
	lineAddr := a & c.lineMask
	if ln := c.lookup(lineAddr); ln != nil {
		ln.valid = false
		ln.dirty = false
		return true
	}
	return false
}

// clone is the reference's snapshot-and-restore into a fresh level: a
// deep copy of every field, wired to next.
func (c *refCache) clone(next refBackend) *refCache {
	d := *c
	d.next = next
	d.lines = append([]refLine(nil), c.lines...)
	d.mshrs = append([]mshr(nil), c.mshrs...)
	return &d
}

// encode writes the reference's state in the CacheSnapshot encoding.
func (c *refCache) encode(w *wire.Writer) {
	w.String(c.cfg.Name)
	w.Int(c.cfg.SizeBytes)
	w.Int(c.cfg.LineSize)
	w.Int(c.cfg.Assoc)
	w.I64(c.cfg.HitLatency)
	w.Int(c.cfg.MSHRs)
	w.Int(c.cfg.TransferBytesPerCycle)
	w.U32(uint32(len(c.lines)))
	for _, ln := range c.lines {
		w.U64(ln.tag)
		w.Bool(ln.valid)
		w.Bool(ln.dirty)
		w.I64(ln.lru)
	}
	w.U32(uint32(len(c.mshrs)))
	for _, m := range c.mshrs {
		w.U64(m.lineAddr)
		w.I64(m.ready)
		w.Bool(m.inUse)
	}
	w.I64(c.clock)
	EncodeStats(w, &c.Stats)
}

// refMainMemory is the main memory as it was: it divides out the bus
// occupancy on every transfer.
type refMainMemory struct {
	Latency       int64
	BytesPerCycle int
	busFree       int64

	BytesRead    uint64
	BytesWritten uint64
	LineSize     int
}

func (mm *refMainMemory) transfer(now int64) int64 {
	occupy := int64((mm.LineSize + mm.BytesPerCycle - 1) / mm.BytesPerCycle)
	start := maxI64(now, mm.busFree)
	mm.busFree = start + occupy
	return start + occupy
}

func (mm *refMainMemory) Fetch(lineAddr uint64, now int64) int64 {
	mm.BytesRead += uint64(mm.LineSize)
	return mm.transfer(now + mm.Latency)
}

func (mm *refMainMemory) WriteBack(lineAddr uint64, now int64) {
	mm.BytesWritten += uint64(mm.LineSize)
	mm.transfer(now)
}

// encode writes the reference's state in the MainMemorySnapshot
// encoding.
func (mm *refMainMemory) encode(w *wire.Writer) {
	w.I64(mm.Latency)
	w.Int(mm.BytesPerCycle)
	w.Int(mm.LineSize)
	w.I64(mm.busFree)
	w.U64(mm.BytesRead)
	w.U64(mm.BytesWritten)
}
