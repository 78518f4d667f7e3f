// Package sim assembles the full simulated machine: tagged memory
// (internal/mem), the forwarding mechanism (internal/core), the cache
// hierarchy (internal/cache), and the out-of-order pipeline
// (internal/cpu). Guest programs — the paper's eight applications — run
// against the Machine API: Inst for non-memory instructions, typed
// loads/stores that are transparently forwarded, block prefetch, the
// three ISA extensions with their real timing cost, and malloc/free.
//
// Every effect the paper evaluates flows through here: forwarding hops
// become dependent cache accesses (polluting the cache with old
// locations, Section 5.4); relocation code pays instruction and memory
// cost; data-dependence speculation sees initial and final addresses;
// and the perfect-forwarding mode of Figure 10 resolves relocated data
// with zero overhead.
package sim

import (
	"fmt"

	"memfwd/internal/addrtab"
	"memfwd/internal/cache"
	"memfwd/internal/core"
	"memfwd/internal/cpu"
	"memfwd/internal/fault"
	"memfwd/internal/mem"
	"memfwd/internal/obs"
)

// Config describes one machine instance. Zero fields take defaults from
// DefaultConfig.
type Config struct {
	LineSize int // bytes; the paper sweeps 32, 64, 128 (and 256 for BH)

	// Harts is the number of hardware threads sharing the machine's
	// tagged memory (0 and 1 both mean a single hart). Each hart gets a
	// private pipeline and L1+L2 hierarchy over the shared main memory;
	// see hart.go for the coherence rules. Hart 0 is the guest mutator;
	// the scheduler (internal/sched) drives the others.
	Harts int

	L1Size, L1Assoc, L1MSHRs int
	L2Size, L2Assoc, L2MSHRs int
	L1HitLat, L2HitLat       int64
	MemLatency               int64
	MemBusBytesPerCycle      int
	FillBytesPerCycle        int

	CPU cpu.Config

	// PerHopCost is the extra latency of dereferencing one forwarding
	// hop beyond the cache access itself (the exception/trap mechanics
	// of Section 3.2).
	PerHopCost int64

	// TrapOverheadInst is the fixed instruction cost of entering and
	// leaving a user-level forwarding trap (Section 3.2's lightweight
	// trapping mechanism), charged whenever a handler runs, on top of
	// whatever the handler itself executes. Zero takes the default.
	TrapOverheadInst int

	// PerfectForwarding models Figure 10's "Perf" scheme: all
	// references to relocated objects resolve directly at their new
	// addresses with no forwarding traffic or cost.
	PerfectForwarding bool

	// DepEvery/DepLat model dependence chains among plain instructions:
	// every DepEvery-th instruction takes DepLat cycles, producing the
	// inst-stall component of Figure 5.
	DepEvery int
	DepLat   int64

	// Heap geometry.
	HeapBase  mem.Addr
	HeapLimit uint64

	// Tiers, when non-nil, partitions the physical address space into
	// latency tiers (mem.NewTiers): main memory charges the owning
	// tier's miss penalty per line instead of the flat MemLatency, and
	// the heap falls in the slowest tier. Carried by pointer so Config
	// stays comparable (snapshot restore requires it); the realized
	// geometry is a pure function of this spec, so machines rebuilt
	// from snapshots agree on every address's tier.
	Tiers *mem.TierConfig
}

// DefaultConfig returns the baseline machine: a 4-wide out-of-order
// core with an 8KB L1 and 64KB L2. The hierarchy is deliberately about
// one-sixteenth the size of the paper's so that the reproduction's
// scaled-down working sets (hundreds of KB rather than several MB)
// exceed the secondary cache the same way the paper's applications
// exceeded theirs; all ratios that drive the figures are preserved.
func DefaultConfig() Config {
	return Config{
		LineSize:            32,
		L1Size:              8 * 1024,
		L1Assoc:             2,
		L1MSHRs:             8,
		L2Size:              64 * 1024,
		L2Assoc:             4,
		L2MSHRs:             16,
		L1HitLat:            1,
		L2HitLat:            12,
		MemLatency:          70,
		MemBusBytesPerCycle: 8,
		FillBytesPerCycle:   16,
		CPU:                 cpu.DefaultConfig(),
		PerHopCost:          4,
		TrapOverheadInst:    12,
		DepEvery:            6,
		DepLat:              2,
		HeapBase:            0x1000_0000,
		HeapLimit:           1 << 30,
	}
}

const maxHops = 16 // histogram buckets for forwarded references

// Stats is the full measurement record for one run; the figure
// harnesses derive every series from it.
type Stats struct {
	Cycles       int64
	Slots        [4]uint64 // busy, load stall, store stall, inst stall
	Instructions uint64
	Loads        uint64
	Stores       uint64

	L1, L2 cache.Stats
	// Link bandwidth in bytes (Figure 6b).
	BytesL1L2  uint64
	BytesL2Mem uint64

	// Forwarding behaviour (Figure 10c): histogram of references by
	// hops taken, index 0 unused.
	LoadsFwdByHops  [maxHops + 1]uint64
	StoresFwdByHops [maxHops + 1]uint64

	// Latency decomposition (Figure 10d), in cycles.
	LoadCycles     uint64 // total load latency
	LoadFwdCycles  uint64 // portion spent dereferencing forwarding addresses
	StoreCycles    uint64
	StoreFwdCycles uint64

	DepViolations uint64
	DepBypasses   uint64

	Traps            uint64
	CycleFalseAlarms uint64
	CyclesDetected   uint64

	// Memory footprint (Table 1's space overhead).
	HeapPeak      uint64
	HeapAllocated uint64
	PagesTouched  int
}

// LoadsForwarded returns the number of loads that took at least one hop.
func (s *Stats) LoadsForwarded() uint64 {
	var n uint64
	for _, v := range s.LoadsFwdByHops[1:] {
		n += v
	}
	return n
}

// StoresForwarded returns the number of stores that took at least one hop.
func (s *Stats) StoresForwarded() uint64 {
	var n uint64
	for _, v := range s.StoresFwdByHops[1:] {
		n += v
	}
	return n
}

// Machine is one simulated processor + memory system instance. It is
// not safe for concurrent use; each experiment builds its own.
type Machine struct {
	cfg Config

	Mem   *mem.Memory
	Alloc *mem.Allocator
	Fwd   *core.Forwarder
	L1    *cache.Cache
	L2    *cache.Cache
	MM    *cache.MainMemory
	Pipe  *cpu.Pipeline

	trap     core.TrapHandler
	sites    []string
	curSite  int
	faultInj *fault.Injector

	// Down-counters driving the instruction-mix policy in Inst: branch
	// mispredicts every 48th op, a dependence-chain latency every
	// DepEvery-th. Counting down replaces two integer modulos on the
	// per-instruction path with two decrements.
	mix           cpu.Mix
	mispredictCtr uint32
	depCtr        uint32

	hopScratch   []mem.Addr
	hopFn        core.HopFunc // pre-bound append-to-hopScratch, so resolve never allocates
	chainScratch []mem.Addr   // reused by Free's chain enumeration

	// ptrProv tracks pointer provenance: the completion time of the
	// load that most recently produced each heap-pointer value. A later
	// load whose address derives from that value cannot issue earlier —
	// this serializes pointer-chasing chains exactly as real hardware
	// dependences do. Keyed by value>>8 (objects are well under 256
	// bytes); each entry keeps the exact base for validation.
	//
	// The table is bounded by a clock-style sweep (see recordPtr): once
	// it reaches provLimit entries, every entry whose ready time is at
	// or below the pipeline's dispatch floor is evicted. Such entries
	// can never again raise a minIssue constraint, so eviction is
	// invisible to timing — outputs stay byte-identical — while the
	// table stops growing linearly with run length.
	ptrProv   provTable
	provLimit int

	// tiers is the realized tier geometry when cfg.Tiers is set (nil
	// otherwise). The machine uses it only for immutable latency
	// lookups; residency accounting belongs to the tiering daemon.
	tiers *mem.Tiers

	// Observability (see obs.go). All nil/zero when disabled, leaving
	// the hot paths with a single nil check each.
	tracer      *obs.Tracer
	phases      []string
	series      *obs.Series
	sampleEvery uint64
	sampleNext  uint64
	samplePrev  Stats
	heat        *obs.HeatMap
	spans       *obs.SpanTable

	// stats holds the current hart's latency accumulators, hop
	// histograms and trap count; fill derives the other Stats fields.
	// Each hart owns its own, so SetHart moves one pointer.
	stats     *Stats
	finalized bool

	// Multi-hart state (nil/zero on a single-hart machine, so the
	// single-hart hot paths pay one nil check). harts[curHart]'s
	// mutable scalars are stale while that hart is current — the live
	// values are the machine fields above; SetHart keeps them in sync.
	harts    []hartState
	curHart  int
	cohInvL1 uint64
	cohInvL2 uint64
}

// withDefaults returns cfg with every zero field replaced by its
// default — exactly the normalization New applies before building. The
// snapshot codec validates against the normalized form, so a decoded
// Config that passes validation can always be handed to New safely.
func (cfg Config) withDefaults() Config {
	d := DefaultConfig()
	if cfg.LineSize == 0 {
		cfg.LineSize = d.LineSize
	}
	if cfg.L1Size == 0 {
		cfg.L1Size = d.L1Size
	}
	if cfg.L1Assoc == 0 {
		cfg.L1Assoc = d.L1Assoc
	}
	if cfg.L1MSHRs == 0 {
		cfg.L1MSHRs = d.L1MSHRs
	}
	if cfg.L2Size == 0 {
		cfg.L2Size = d.L2Size
	}
	if cfg.L2Assoc == 0 {
		cfg.L2Assoc = d.L2Assoc
	}
	if cfg.L2MSHRs == 0 {
		cfg.L2MSHRs = d.L2MSHRs
	}
	if cfg.L1HitLat == 0 {
		cfg.L1HitLat = d.L1HitLat
	}
	if cfg.L2HitLat == 0 {
		cfg.L2HitLat = d.L2HitLat
	}
	if cfg.MemLatency == 0 {
		cfg.MemLatency = d.MemLatency
	}
	if cfg.MemBusBytesPerCycle == 0 {
		cfg.MemBusBytesPerCycle = d.MemBusBytesPerCycle
	}
	if cfg.FillBytesPerCycle == 0 {
		cfg.FillBytesPerCycle = d.FillBytesPerCycle
	}
	if cfg.PerHopCost == 0 {
		cfg.PerHopCost = d.PerHopCost
	}
	if cfg.TrapOverheadInst == 0 {
		cfg.TrapOverheadInst = d.TrapOverheadInst
	}
	if cfg.DepEvery == 0 {
		cfg.DepEvery = d.DepEvery
	}
	if cfg.DepLat == 0 {
		cfg.DepLat = d.DepLat
	}
	if cfg.HeapBase == 0 {
		cfg.HeapBase = d.HeapBase
	}
	if cfg.HeapLimit == 0 {
		cfg.HeapLimit = d.HeapLimit
	}
	if cfg.Harts < 1 {
		cfg.Harts = 1
	}
	return cfg
}

// New builds a machine from cfg (zero fields defaulted).
func New(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	if cfg.Harts > MaxHarts {
		panic(fmt.Sprintf("sim: Harts %d exceeds the supported maximum %d", cfg.Harts, MaxHarts))
	}

	m := mem.New()
	mm := cfg.mainMemory()
	var tiers *mem.Tiers
	if cfg.Tiers != nil {
		tiers = mem.NewTiers(cfg.Tiers)
		mm.TierLatency = tiers.LineLatency
	}
	l1, l2 := cfg.hierarchy(mm)

	mach := &Machine{
		cfg:   cfg,
		Mem:   m,
		Alloc: mem.NewAllocator(m, cfg.HeapBase, cfg.HeapLimit),
		Fwd:   core.NewForwarder(m),
		L1:    l1,
		L2:    l2,
		MM:    mm,
		Pipe:  cpu.New(cfg.CPU),
		tiers: tiers,
		sites: []string{"<unknown>"},
		stats: new(Stats),
	}
	mach.provLimit = provLimitFor(mach.Pipe.Config())
	mach.ptrProv = addrtab.New[ptrEntry](mach.provLimit)
	mach.mix = cfg.mix()
	mach.mispredictCtr = mach.mix.MispredictEvery
	mach.depCtr = mach.mix.DepEvery
	mach.hopFn = func(wa mem.Addr, hop int) {
		mach.hopScratch = append(mach.hopScratch, wa)
	}
	if cfg.Harts > 1 {
		mach.buildHarts(cfg)
	}
	return mach
}

// mainMemory builds the DRAM model cfg describes.
func (cfg Config) mainMemory() *cache.MainMemory {
	return cache.NewMainMemory(cfg.MemLatency, cfg.MemBusBytesPerCycle, cfg.LineSize)
}

// hierarchy builds one hart's private L1 and L2 over main memory mm.
func (cfg Config) hierarchy(mm *cache.MainMemory) (l1, l2 *cache.Cache) {
	l2 = cache.New(cache.Config{
		Name: "L2", SizeBytes: cfg.L2Size, LineSize: cfg.LineSize,
		Assoc: cfg.L2Assoc, HitLatency: cfg.L2HitLat, MSHRs: cfg.L2MSHRs,
		TransferBytesPerCycle: cfg.FillBytesPerCycle,
	}, nil, mm)
	l1 = cache.New(cache.Config{
		Name: "L1", SizeBytes: cfg.L1Size, LineSize: cfg.LineSize,
		Assoc: cfg.L1Assoc, HitLatency: cfg.L1HitLat, MSHRs: cfg.L1MSHRs,
		TransferBytesPerCycle: cfg.FillBytesPerCycle,
	}, l2, nil)
	return l1, l2
}

// provLimitFor sizes the provenance map's sweep trigger. Entries stay
// unevictable only while their producing load's completion time is
// ahead of the dispatch floor, a window bounded by the ROB; anything
// comfortably above that keeps sweeps rare (amortized O(1) per record)
// while still bounding the map.
func provLimitFor(c cpu.Config) int {
	limit := 4096
	if r := 4 * c.ROB; r > limit {
		limit = r
	}
	return limit
}

// Config returns the effective configuration.
func (m *Machine) Config() Config { return m.cfg }

// Tiers returns the machine's realized tier geometry, or nil on an
// untiered machine.
func (m *Machine) Tiers() *mem.Tiers { return m.tiers }

// LineSize returns the primary-cache line size in bytes (the guest
// Machine interface's layout-target geometry).
func (m *Machine) LineSize() int { return m.L1.LineSize() }

// Allocator exposes the raw heap allocator for untimed uses: arena
// carving by relocation pools and pre-run heap aging.
func (m *Machine) Allocator() *mem.Allocator { return m.Alloc }

// Memory exposes the tagged memory substrate (untimed test support).
func (m *Machine) Memory() *mem.Memory { return m.Mem }

// Forwarder exposes the dereference mechanism (untimed test support).
func (m *Machine) Forwarder() *core.Forwarder { return m.Fwd }

// SetTrap installs (or clears, with nil) the user-level forwarding trap
// handler. Handlers run as guest code: machine operations they perform
// are charged normally.
func (m *Machine) SetTrap(h core.TrapHandler) { m.trap = h }

// FaultInjector returns the installed fault injector, or nil.
func (m *Machine) FaultInjector() *fault.Injector { return m.faultInj }

// SetFaultInjector installs (or, with nil, removes) a fault injector:
// the tagged memory's Unforwarded_Write path filters through it, and
// every forwarding hop visits its core.resolve.hop point. Purely
// functional — installing an injector that never fires changes no
// timing and no results.
func (m *Machine) SetFaultInjector(in *fault.Injector) {
	m.faultInj = in
	if in == nil {
		m.Mem.SetWriteFault(nil)
		m.Fwd.FaultHook = nil
		return
	}
	m.Mem.SetWriteFault(in.FilterWrite)
	m.Fwd.FaultHook = func(mem.Addr, int) { in.Step(fault.ResolveHop) }
}

// Site interns a static reference-site name (the analogue of a PC) and
// returns its id for SetSite.
func (m *Machine) Site(name string) int {
	for i, s := range m.sites {
		if s == name {
			return i
		}
	}
	m.sites = append(m.sites, name)
	return len(m.sites) - 1
}

// SetSite marks subsequent references as coming from site id.
func (m *Machine) SetSite(id int) { m.curSite = id }

// SiteName resolves a site id back to its name.
func (m *Machine) SiteName(id int) string {
	if id < 0 || id >= len(m.sites) {
		return "<bad site>"
	}
	return m.sites[id]
}

// mispredictEvery is the instruction period of the modelled branch
// mispredict in Inst.
const mispredictEvery = 48

// mix is the instruction mix Inst feeds the pipeline: a mispredicted
// branch every 48th instruction executes in 2 cycles and then refills
// the front end for 5 before dispatch resumes, and every DepEvery-th
// instruction takes DepLat cycles.
func (cfg Config) mix() cpu.Mix {
	return cpu.Mix{
		MispredictEvery:  mispredictEvery,
		MispredictLat:    2,
		MispredictBubble: 5,
		DepEvery:         uint32(cfg.DepEvery),
		DepLat:           cfg.DepLat,
	}
}

// Inst accounts n non-memory instructions. Most execute in one cycle;
// every DepEvery-th carries a dependence-chain latency, and roughly
// every 48th models a mispredicted branch — together these produce the
// inst-stall component of Figure 5 (cfg.mix). The pipeline runs the
// whole mix in one loop; the two down-counters stay here, where the
// snapshot keeps them.
func (m *Machine) Inst(n int) {
	m.mispredictCtr, m.depCtr = m.Pipe.Inst(n, &m.mix, m.mispredictCtr, m.depCtr)
	m.maybeSample()
}

// resolve follows the forwarding chain for address a, returning the
// final address and the hop word addresses (shared scratch slice, valid
// until the next resolve). In perfect-forwarding mode the chain is
// followed functionally but reported as zero hops with no hop traffic.
func (m *Machine) resolve(a mem.Addr) (final mem.Addr, hops []mem.Addr) {
	m.hopScratch = m.hopScratch[:0]
	var err error
	if m.cfg.PerfectForwarding {
		final, _, err = m.Fwd.Resolve(a, nil)
		if err != nil {
			panic(fmt.Sprintf("sim: %v (initial %#x)", err, a))
		}
		return final, nil
	}
	final, _, err = m.Fwd.Resolve(a, m.hopFn)
	if err != nil {
		panic(fmt.Sprintf("sim: %v (initial %#x)", err, a))
	}
	return final, m.hopScratch
}

// ptrEntry records who produced a pointer value and when it is ready.
type ptrEntry struct {
	base  uint64
	ready int64
}

// provTable is the provenance window (see ptrProv).
type provTable = addrtab.Table[ptrEntry]

// recordPtr notes that a load produced value v (a plausible heap
// pointer) at cycle ready. When the provenance map reaches its bound, a
// clock sweep evicts every entry already at or below the dispatch
// floor — entries that can never again delay an issue (see ptrProv).
func (m *Machine) recordPtr(v uint64, ready int64) {
	if v == 0 || mem.Addr(v) < m.cfg.HeapBase || mem.Addr(v) >= m.cfg.HeapBase+mem.Addr(m.cfg.HeapLimit) {
		return
	}
	if m.ptrProv.Len() >= m.provLimit {
		m.evictProv()
	}
	m.ptrProv.Put(v>>8, ptrEntry{base: v, ready: ready})
}

// evictProv drops provenance entries whose ready time the dispatch
// stream has already passed. Timing-invisible by construction: Load,
// Prefetch, and timedRawLoad apply provenance as max(dispatch, ready),
// and dispatch never moves backwards.
func (m *Machine) evictProv() {
	floor := m.Pipe.DispatchFloor()
	m.ptrProv.Filter(func(_ uint64, e ptrEntry) bool { return e.ready > floor })
}

// addrReady returns the earliest cycle at which the address a is
// available, given pointer provenance: if a falls within 256 bytes of a
// recently loaded pointer value, the access depends on that load.
func (m *Machine) addrReady(a mem.Addr) int64 {
	if m.ptrProv.Len() == 0 {
		return 0
	}
	u := uint64(a)
	if e, ok := m.ptrProv.Get(u >> 8); ok && u >= e.base && u-e.base < 256 {
		return e.ready
	}
	if k := u >> 8; k > 0 {
		if e, ok := m.ptrProv.Get(k - 1); ok && u >= e.base && u-e.base < 256 {
			return e.ready
		}
	}
	return 0
}

func clampHops(h int) int {
	if h > maxHops {
		return maxHops
	}
	return h
}

// Load performs a size-byte load (1, 2, 4, or 8) at address a, following
// any forwarding chain, and returns the zero-extended value. An
// unforwarded reference reads its word and forwarding bit from one page
// lookup and takes no hop, so no hop callback, fault hook, trap or cycle
// check can fire for it; only a set bit walks the chain.
func (m *Machine) Load(a mem.Addr, size uint) uint64 {
	final, hops := a, []mem.Addr(nil)
	v, ok := m.Mem.ReadUnforwarded(a, size)
	if !ok {
		final, hops = m.resolve(a)
		var err error
		if v, err = m.Mem.ReadData(final, size); err != nil {
			panic(fmt.Sprintf("sim: load %d @ %#x: %v", size, a, err))
		}
	}

	var fwdLat int64
	info := m.Pipe.Load(
		cpu.Range{Lo: uint64(a), Hi: uint64(a) + uint64(size)},
		cpu.Range{Lo: uint64(final), Hi: uint64(final) + uint64(size)},
		m.addrReady(a),
		func(issue int64) int64 {
			start, ready := m.walk(hops, final, cache.Load, issue)
			fwdLat = start - issue
			return ready
		},
	)
	lat := uint64(info.Ready - info.Issue)
	m.stats.LoadCycles += lat
	m.stats.LoadFwdCycles += uint64(fwdLat)
	if size == 8 {
		m.recordPtr(v, info.Ready)
	}
	if n := len(hops); n > 0 {
		m.stats.LoadsFwdByHops[clampHops(n)]++
		if m.tracer != nil {
			m.tracer.Emit(obs.Event{Cycle: info.Ready, Kind: obs.KForwardHop,
				Class: uint8(core.Load), Addr: uint64(a), Addr2: uint64(final), N: uint64(n)})
		}
		m.fireTrap(core.Load, a, final, n)
	}
	if m.heat != nil {
		m.heat.RecordAccess(uint64(a), uint64(final), false, len(hops))
	}
	m.maybeSample()
	return v
}

// Store performs a size-byte store at address a, following any
// forwarding chain so the write lands on the relocated data. Like Load,
// an unforwarded store tests the bit and writes from one page lookup.
func (m *Machine) Store(a mem.Addr, v uint64, size uint) {
	final, hops := a, []mem.Addr(nil)
	if !m.Mem.WriteUnforwarded(a, v, size) {
		final, hops = m.resolve(a)
		if err := m.Mem.WriteData(final, v, size); err != nil {
			panic(fmt.Sprintf("sim: store %d @ %#x: %v", size, a, err))
		}
	}
	m.snoopStore(final)

	nHops := len(hops)
	var fwdLat, ordLat int64
	// The drain callback runs synchronously inside Pipe.Store, so the
	// shared hop scratch slice is still valid.
	m.Pipe.Store(
		cpu.Range{Lo: uint64(a), Hi: uint64(a) + uint64(size)},
		cpu.Range{Lo: uint64(final), Hi: uint64(final) + uint64(size)},
		func(at int64) int64 {
			start, done := m.walk(hops, final, cache.Store, at)
			fwdLat, ordLat = start-at, done-start
			return done
		},
	)
	m.stats.StoreCycles += uint64(fwdLat + ordLat)
	m.stats.StoreFwdCycles += uint64(fwdLat)
	if nHops > 0 {
		m.stats.StoresFwdByHops[clampHops(nHops)]++
		if m.tracer != nil {
			m.tracer.Emit(obs.Event{Cycle: m.Pipe.Now(), Kind: obs.KForwardHop,
				Class: uint8(core.Store), Addr: uint64(a), Addr2: uint64(final), N: uint64(nHops)})
		}
		m.fireTrap(core.Store, a, final, nHops)
	}
	if m.heat != nil {
		m.heat.RecordAccess(uint64(a), uint64(final), true, nHops)
	}
	m.maybeSample()
}

// walk is a reference's timed cache walk from cycle at: one dependent
// L1 load per forwarding hop, each followed by the per-hop cost, then
// the access of the given kind at the final address. It returns the
// cycle that access starts and the cycle it completes.
func (m *Machine) walk(hops []mem.Addr, final mem.Addr, kind cache.Kind, at int64) (start, done int64) {
	for _, wa := range hops {
		r, _ := m.L1.Access(uint64(wa), cache.Load, at)
		at = r + m.cfg.PerHopCost
	}
	done, _ = m.L1.Access(uint64(final), kind, at)
	return at, done
}

func (m *Machine) fireTrap(kind core.Kind, initial, final mem.Addr, hops int) {
	if m.trap == nil {
		return
	}
	m.stats.Traps++
	if m.tracer != nil {
		m.tracer.Emit(obs.Event{Cycle: m.Pipe.Now(), Kind: obs.KTrap,
			Class: uint8(kind), Addr: uint64(initial), Addr2: uint64(final), N: uint64(hops)})
	}
	var t0 int64
	if m.heat != nil {
		t0 = m.Pipe.Now()
	}
	h := m.trap
	m.trap = nil // traps do not recurse
	m.Inst(m.cfg.TrapOverheadInst)
	h(core.Event{Kind: kind, Site: m.curSite, Initial: initial, Final: final, Hops: hops})
	m.trap = h
	if m.heat != nil {
		m.heat.RecordTrap(uint64(initial), m.Pipe.Now()-t0)
	}
}

// Convenience accessors for common widths.

// LoadWord loads the 64-bit word at a (pointer-sized, like a C pointer
// or long dereference).
func (m *Machine) LoadWord(a mem.Addr) uint64 { return m.Load(a, 8) }

// StoreWord stores the 64-bit word v at a.
func (m *Machine) StoreWord(a mem.Addr, v uint64) { m.Store(a, v, 8) }

// LoadPtr loads a guest pointer stored at a.
func (m *Machine) LoadPtr(a mem.Addr) mem.Addr { return mem.Addr(m.Load(a, 8)) }

// StorePtr stores guest pointer p at a.
func (m *Machine) StorePtr(a mem.Addr, p mem.Addr) { m.Store(a, uint64(p), 8) }

// Load32 loads a 32-bit value at a.
func (m *Machine) Load32(a mem.Addr) uint32 { return uint32(m.Load(a, 4)) }

// Store32 stores a 32-bit value at a.
func (m *Machine) Store32(a mem.Addr, v uint32) { m.Store(a, uint64(v), 4) }

// Load16 loads a 16-bit value at a.
func (m *Machine) Load16(a mem.Addr) uint16 { return uint16(m.Load(a, 2)) }

// Store16 stores a 16-bit value at a.
func (m *Machine) Store16(a mem.Addr, v uint16) { m.Store(a, uint64(v), 2) }

// Load8 loads one byte at a.
func (m *Machine) Load8(a mem.Addr) uint8 { return uint8(m.Load(a, 1)) }

// Store8 stores one byte at a.
func (m *Machine) Store8(a mem.Addr, v uint8) { m.Store(a, uint64(v), 1) }

// Prefetch issues one block-prefetch instruction covering lines
// consecutive cache lines starting at the line containing a
// (Section 5.2 assumes block prefetching is supported).
func (m *Machine) Prefetch(a mem.Addr, lines int) {
	if lines < 1 {
		lines = 1
	}
	ls := uint64(m.L1.LineSize())
	m.Pipe.Prefetch(m.addrReady(a), func(at int64) {
		base := m.L1.LineAddr(uint64(a))
		for i := 0; i < lines; i++ {
			m.L1.PrefetchLine(base+uint64(i)*ls, at)
		}
	})
}

// --- ISA extensions with timing (Figure 3) --------------------------

// ReadFBit is the Read_FBit instruction: it costs a (non-forwarded)
// load of the word's tag.
func (m *Machine) ReadFBit(a mem.Addr) bool {
	wa := mem.WordAlign(a)
	m.timedRawLoad(wa)
	return m.Fwd.ReadFBit(wa)
}

// UnforwardedRead is the Unforwarded_Read instruction: one load with
// the forwarding mechanism disabled.
func (m *Machine) UnforwardedRead(a mem.Addr) (uint64, bool) {
	wa := mem.WordAlign(a)
	m.timedRawLoad(wa)
	return m.Fwd.UnforwardedRead(wa)
}

// UnforwardedWrite is the Unforwarded_Write instruction: one store with
// the forwarding mechanism disabled, updating word and fbit atomically.
func (m *Machine) UnforwardedWrite(a mem.Addr, v uint64, fbit bool) {
	wa := mem.WordAlign(a)
	m.Fwd.UnforwardedWrite(wa, v, fbit)
	m.snoopStore(wa)
	r := cpu.Range{Lo: uint64(wa), Hi: uint64(wa) + 8}
	m.Pipe.Store(r, r, func(start int64) int64 {
		_, done := m.walk(nil, wa, cache.Store, start)
		return done
	})
}

func (m *Machine) timedRawLoad(wa mem.Addr) {
	r := cpu.Range{Lo: uint64(wa), Hi: uint64(wa) + 8}
	info := m.Pipe.Load(r, r, m.addrReady(wa), func(issue int64) int64 {
		_, ready := m.walk(nil, wa, cache.Load, issue)
		return ready
	})
	m.stats.LoadCycles += uint64(info.Ready - info.Issue)
}

// FinalAddr is the compiler-inserted final-address lookup used before
// pointer comparisons (Section 2.1). It pays real instructions and the
// Read_FBit/Unforwarded_Read chain walk. Null pointers short-circuit.
func (m *Machine) FinalAddr(a mem.Addr) mem.Addr {
	m.Inst(1) // null test
	if a == 0 {
		return 0
	}
	off := mem.Addr(mem.WordOffset(a))
	wa := mem.WordAlign(a)
	for {
		m.Inst(1) // loop overhead
		if !m.ReadFBit(wa) {
			return wa + off
		}
		v, _ := m.UnforwardedRead(wa)
		wa = mem.WordAlign(mem.Addr(v) + off)
	}
}

// PtrEqual compares two pointers by final address, the compiler
// transformation that preserves comparison outcomes under relocation.
func (m *Machine) PtrEqual(a, b mem.Addr) bool {
	return m.FinalAddr(a) == m.FinalAddr(b)
}

// --- heap ------------------------------------------------------------

// Malloc allocates n zeroed bytes and charges the allocator's
// instruction cost.
func (m *Machine) Malloc(n uint64) mem.Addr {
	m.Inst(12) // malloc bookkeeping
	a := m.Alloc.Alloc(n)
	if m.tracer != nil {
		m.tracer.Emit(obs.Event{Cycle: m.Pipe.Now(), Kind: obs.KAlloc,
			Addr: uint64(a), N: n})
	}
	// Heat attribution rides the allocator's OnEvent hook (wired by
	// SetHeatMap), not a call here: untimed Alloc/Free — arena carving,
	// heap aging — retire and mint object identities too, and a reused
	// base must always start a fresh HeatObject.
	return a
}

// Free releases the block at a, and — per the deallocation wrapper of
// Section 3.3 — any allocator blocks reachable through the forwarding
// chain of the block's first word.
func (m *Machine) Free(a mem.Addr) {
	m.Inst(12)
	if m.tracer != nil {
		m.tracer.Emit(obs.Event{Cycle: m.Pipe.Now(), Kind: obs.KFree, Addr: uint64(a)})
	}
	final, _, err := m.Fwd.Resolve(a, nil)
	// Free intermediate chain links that are themselves heap blocks
	// (relocation-pool interiors are owned by their pool and skipped).
	m.chainScratch = m.Fwd.AppendChainWords(m.chainScratch[:0], a)
	for _, wa := range m.chainScratch {
		if wa != a && m.Alloc.Freeable(wa) {
			m.Alloc.Free(wa)
		}
	}
	if m.Alloc.Freeable(a) {
		m.Alloc.Free(a)
	}
	if err == nil {
		if tail := mem.WordAlign(final); tail != a && m.Alloc.Freeable(tail) {
			m.Alloc.Free(tail)
		}
	}
}

// Snapshot returns the statistics accumulated so far without closing
// the pipeline; use it to measure phases of a running guest program.
// Cycles reflects the current graduation point (the final partial cycle
// is not yet padded, so the slot-partition invariant is only exact
// after Finalize).
func (m *Machine) Snapshot() *Stats {
	st := m.fill()
	st.Cycles = m.Pipe.Now()
	return st
}

// Finalize closes every hart's pipeline and snapshots all statistics.
// The returned Stats are the current hart's — hart 0 by convention; the
// scheduler parks the machine there before the harness finalizes — so
// single-hart output is bit-for-bit what it always was.
func (m *Machine) Finalize() *Stats {
	if !m.finalized {
		m.Pipe.Finalize()
		for i := range m.harts {
			if m.harts[i].pipe != m.Pipe {
				m.harts[i].pipe.Finalize()
			}
		}
		m.finalized = true
		if m.series != nil {
			m.takeSample() // flush the last partial interval
		}
	}
	return m.fill()
}

// fill assembles a Stats view from the current hart's timing state plus
// the shared functional counters (forwarder, allocator, page footprint).
func (m *Machine) fill() *Stats {
	st := *m.stats
	ps := m.Pipe.Stats
	st.Cycles = ps.Cycles
	st.Slots = [4]uint64{
		ps.Slots[cpu.Busy], ps.Slots[cpu.LoadStall],
		ps.Slots[cpu.StoreStall], ps.Slots[cpu.InstStall],
	}
	st.Instructions = ps.Instructions
	st.Loads = ps.Loads
	st.Stores = ps.Stores
	st.DepViolations = ps.DepViolations
	st.DepBypasses = ps.DepBypasses
	st.L1 = m.L1.Stats
	st.L2 = m.L2.Stats
	st.BytesL1L2 = m.L1.Stats.BytesFromNext + m.L1.Stats.BytesToNext
	st.BytesL2Mem = m.L2.Stats.BytesFromNext + m.L2.Stats.BytesToNext
	st.CycleFalseAlarms = m.Fwd.CycleFalseAlarms
	st.CyclesDetected = m.Fwd.CyclesDetected
	st.HeapPeak = m.Alloc.PeakLive
	st.HeapAllocated = m.Alloc.BytesAllocated
	st.PagesTouched = m.Mem.PagesTouched()
	return &st
}
