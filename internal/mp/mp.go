// Package mp extends the single-processor machine to a small
// cache-coherent shared-memory multiprocessor, implementing the
// false-sharing application of memory forwarding the paper describes in
// Section 2.2: "by relocating those unrelated data items to distinct
// cache lines, false sharing can be avoided. Memory forwarding would be
// especially helpful in avoiding false sharing in irregular
// shared-memory applications, where proving that data items can be
// safely relocated is difficult."
//
// The model: each processor has a private L1; an invalidation-based
// (MSI-style) directory keeps the L1s coherent at line granularity over
// a shared tagged memory. Stores invalidate remote copies; loads of a
// remotely-dirty line pay an intervention. The directory classifies
// each invalidation as true or false sharing by comparing the words the
// victim actually touched against the word being written.
//
// Timing is per-processor: each CPU owns a pipeline, and coherence
// events add latency to the access that caused them. Guest threads are
// driven in explicit rounds by the caller (lock-step interleaving),
// which is what produces the ping-ponging the paper describes.
package mp

import (
	"fmt"

	"memfwd/internal/cache"
	"memfwd/internal/core"
	"memfwd/internal/cpu"
	"memfwd/internal/mem"
)

// Config sizes the multiprocessor.
type Config struct {
	Processors int
	LineSize   int
	L1Size     int
	L1Assoc    int
	L1HitLat   int64
	MemLatency int64

	// InvalidateLat is the latency a store pays per remote copy it must
	// invalidate; InterventionLat is the latency a load pays to fetch a
	// line that is dirty in another processor's cache.
	InvalidateLat   int64
	InterventionLat int64

	HeapBase  mem.Addr
	HeapLimit uint64
}

// DefaultConfig returns a 4-processor system with health-class L1s.
func DefaultConfig() Config {
	return Config{
		Processors:      4,
		LineSize:        64,
		L1Size:          8 * 1024,
		L1Assoc:         2,
		L1HitLat:        1,
		MemLatency:      70,
		InvalidateLat:   20,
		InterventionLat: 40,
		HeapBase:        0x2000_0000,
		HeapLimit:       1 << 28,
	}
}

// Stats aggregates system-wide coherence behaviour.
type Stats struct {
	Invalidations      uint64
	FalseInvalidations uint64 // victim never touched the written word
	TrueInvalidations  uint64
	Interventions      uint64
}

type dirEntry struct {
	sharers uint32 // bitmask of processors with a copy
	dirty   int    // processor holding it modified, or -1
	// touched[i] is a bitmask of the words of this line processor i has
	// accessed since it last (re)acquired the line; used to classify
	// invalidations as true or false sharing.
	touched []uint8
}

// System is one simulated multiprocessor.
type System struct {
	cfg  Config
	Mem  *mem.Memory
	Fwd  *core.Forwarder
	Heap *mem.Allocator
	CPUs []*CPU

	dir      map[uint64]*dirEntry
	lineMask uint64

	Stats Stats
}

// CPU is one processor: a private L1 and pipeline over the shared
// memory.
type CPU struct {
	ID   int
	L1   *cache.Cache
	Pipe *cpu.Pipeline
	sys  *System
}

// New builds the system (zero config fields defaulted).
func New(cfg Config) *System {
	d := DefaultConfig()
	if cfg.Processors == 0 {
		cfg.Processors = d.Processors
	}
	if cfg.Processors > 32 {
		panic("mp: at most 32 processors")
	}
	if cfg.LineSize == 0 {
		cfg.LineSize = d.LineSize
	}
	if cfg.L1Size == 0 {
		cfg.L1Size = d.L1Size
	}
	if cfg.L1Assoc == 0 {
		cfg.L1Assoc = d.L1Assoc
	}
	if cfg.L1HitLat == 0 {
		cfg.L1HitLat = d.L1HitLat
	}
	if cfg.MemLatency == 0 {
		cfg.MemLatency = d.MemLatency
	}
	if cfg.InvalidateLat == 0 {
		cfg.InvalidateLat = d.InvalidateLat
	}
	if cfg.InterventionLat == 0 {
		cfg.InterventionLat = d.InterventionLat
	}
	if cfg.HeapBase == 0 {
		cfg.HeapBase = d.HeapBase
	}
	if cfg.HeapLimit == 0 {
		cfg.HeapLimit = d.HeapLimit
	}

	m := mem.New()
	s := &System{
		cfg:      cfg,
		Mem:      m,
		Fwd:      core.NewForwarder(m),
		Heap:     mem.NewAllocator(m, cfg.HeapBase, cfg.HeapLimit),
		dir:      make(map[uint64]*dirEntry),
		lineMask: ^uint64(cfg.LineSize - 1),
	}
	for i := 0; i < cfg.Processors; i++ {
		mm := cache.NewMainMemory(cfg.MemLatency, 8, cfg.LineSize)
		l1 := cache.New(cache.Config{
			Name: fmt.Sprintf("P%d.L1", i), SizeBytes: cfg.L1Size,
			LineSize: cfg.LineSize, Assoc: cfg.L1Assoc,
			HitLatency: cfg.L1HitLat, MSHRs: 8, TransferBytesPerCycle: 16,
		}, nil, mm)
		s.CPUs = append(s.CPUs, &CPU{ID: i, L1: l1, Pipe: cpu.New(cpu.Config{})})
	}
	for _, c := range s.CPUs {
		c.sys = s
	}
	return s
}

func (s *System) entry(lineAddr uint64) *dirEntry {
	e := s.dir[lineAddr]
	if e == nil {
		e = &dirEntry{dirty: -1, touched: make([]uint8, s.cfg.Processors)}
		s.dir[lineAddr] = e
	}
	return e
}

func wordBit(lineAddr, a uint64) uint8 {
	off := (a - lineAddr) >> 3
	return 1 << (off & 7)
}

// coherence applies the directory protocol for processor id accessing
// address a (write or read), returning the extra latency incurred.
func (s *System) coherence(id int, a uint64, write bool) int64 {
	lineAddr := a & s.lineMask
	e := s.entry(lineAddr)
	var extra int64

	if write {
		// Invalidate every other copy.
		for j, c := range s.CPUs {
			if j == id || e.sharers&(1<<uint(j)) == 0 {
				continue
			}
			c.L1.Invalidate(a)
			s.Stats.Invalidations++
			extra += s.cfg.InvalidateLat
			if e.touched[j]&wordBit(lineAddr, a) != 0 {
				s.Stats.TrueInvalidations++
			} else {
				// The victim had the line but never touched this word:
				// the classic false-sharing ping-pong.
				s.Stats.FalseInvalidations++
			}
			e.sharers &^= 1 << uint(j)
			e.touched[j] = 0
		}
		e.dirty = id
	} else if e.dirty >= 0 && e.dirty != id {
		// Fetch from the dirty owner.
		s.Stats.Interventions++
		extra += s.cfg.InterventionLat
		e.dirty = -1
	}
	e.sharers |= 1 << uint(id)
	e.touched[id] |= wordBit(lineAddr, a)
	return extra
}

// resolve follows the shared forwarding chain.
func (c *CPU) resolve(a mem.Addr) (mem.Addr, int) {
	final, hops, err := c.sys.Fwd.Resolve(a, nil)
	if err != nil {
		panic(fmt.Sprintf("mp: %v", err))
	}
	return final, hops
}

// LoadWord performs a coherent 64-bit load.
func (c *CPU) LoadWord(a mem.Addr) uint64 {
	final, hops := c.resolve(a)
	v := c.sys.Mem.ReadWord(mem.WordAlign(final))
	r := cpu.Range{Lo: uint64(final), Hi: uint64(final) + 8}
	c.Pipe.Load(r, r, 0, func(issue int64) int64 {
		t := issue + int64(hops)*4
		t += c.sys.coherence(c.ID, uint64(mem.WordAlign(final)), false)
		ready, _ := c.L1.Access(uint64(final), cache.Load, t)
		return ready
	})
	return v
}

// StoreWord performs a coherent 64-bit store, invalidating remote
// copies of the line.
func (c *CPU) StoreWord(a mem.Addr, v uint64) {
	final, hops := c.resolve(a)
	c.sys.Mem.WriteWord(mem.WordAlign(final), v)
	r := cpu.Range{Lo: uint64(final), Hi: uint64(final) + 8}
	c.Pipe.Store(r, r, func(start int64) int64 {
		t := start + int64(hops)*4
		t += c.sys.coherence(c.ID, uint64(mem.WordAlign(final)), true)
		ready, _ := c.L1.Access(uint64(final), cache.Store, t)
		return ready
	})
}

// plainMix makes every plain instruction a one-cycle op: the
// multiprocessor model has no mispredicts or dependence chains, so
// every instruction is an "event" of latency one with no bubble.
var plainMix = cpu.Mix{MispredictEvery: 1, MispredictLat: 1, DepEvery: 1, DepLat: 1}

// Inst accounts n plain instructions on this processor.
func (c *CPU) Inst(n int) {
	c.Pipe.Inst(n, &plainMix, 1, 1)
}

// Cycles finalizes every pipeline and returns the slowest processor's
// cycle count (parallel execution finishes when the last thread does).
func (s *System) Cycles() int64 {
	var worst int64
	for _, c := range s.CPUs {
		c.Pipe.Finalize()
		if c.Pipe.Stats.Cycles > worst {
			worst = c.Pipe.Stats.Cycles
		}
	}
	return worst
}

// RelocatePadded relocates each of the word-sized items to its own
// cache line in fresh memory, leaving forwarding addresses behind: the
// paper's false-sharing cure, safe even when other threads hold stale
// pointers. Returns the new addresses.
func (s *System) RelocatePadded(items []mem.Addr) []mem.Addr {
	out := make([]mem.Addr, len(items))
	save := s.Heap.HeaderBytes
	s.Heap.HeaderBytes = 0
	for i, a := range items {
		// Take line-sized blocks until one lands on a line boundary
		// (with headerless bump allocation this converges immediately
		// after at most one discard).
		tgt := s.Heap.Alloc(uint64(s.cfg.LineSize))
		for uint64(tgt)&^s.lineMask != 0 {
			pad := uint64(s.cfg.LineSize) - (uint64(tgt) &^ s.lineMask)
			s.Heap.Alloc(pad)
			tgt = s.Heap.Alloc(uint64(s.cfg.LineSize))
		}
		wa := mem.WordAlign(a)
		v, _ := s.Fwd.UnforwardedRead(wa)
		s.Fwd.UnforwardedWrite(tgt, v, false)
		s.Fwd.UnforwardedWrite(wa, uint64(tgt), true)
		out[i] = tgt
	}
	s.Heap.HeaderBytes = save
	return out
}
