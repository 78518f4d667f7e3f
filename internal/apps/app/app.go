// Package app defines the common harness contract for the paper's
// eight benchmark applications (Table 1). Each application is a guest
// program over the simulated machine: all of its data lives in
// simulated memory and every instruction and reference is charged.
//
// Each concrete application package exports a single app.App value; the
// top-level memfwd package assembles the registry.
package app

import (
	"math/rand"

	"memfwd/internal/core"
	"memfwd/internal/fault"
	"memfwd/internal/mem"
)

// Machine is the guest-facing contract of a simulated machine: every
// operation a benchmark application (or a layout-optimization pass in
// internal/opt) may perform. The full out-of-order simulator
// (internal/sim) implements it with real timing; the functional
// reference machine (internal/oracle) implements it with direct word
// semantics and no timing at all. Because guest programs are written
// against this interface, the differential harness can run the same
// program on both and demand identical functional results — the
// mechanically-checked version of the paper's "relocation is always
// safe" guarantee.
//
// Functional determinism contract: every implementation must produce
// identical values from Load*, identical addresses from Malloc (the
// allocator is shared state driven only by the guest's call sequence),
// and identical trap-firing decisions (a handler fires exactly when a
// reference took at least one forwarding hop). Timing-only methods
// (Inst, Prefetch, Site, SetSite, PhaseBegin, PhaseEnd, TraceRelocate)
// may be no-ops.
type Machine interface {
	// Inst accounts n non-memory instructions.
	Inst(n int)

	// Forwarded data references (sizes 1, 2, 4, 8; natural alignment).
	Load(a mem.Addr, size uint) uint64
	Store(a mem.Addr, v uint64, size uint)
	LoadWord(a mem.Addr) uint64
	StoreWord(a mem.Addr, v uint64)
	LoadPtr(a mem.Addr) mem.Addr
	StorePtr(a, p mem.Addr)
	Load32(a mem.Addr) uint32
	Store32(a mem.Addr, v uint32)
	Load16(a mem.Addr) uint16
	Store16(a mem.Addr, v uint16)
	Load8(a mem.Addr) uint8
	Store8(a mem.Addr, v uint8)

	// Prefetch issues a block prefetch of consecutive lines.
	Prefetch(a mem.Addr, lines int)

	// The three ISA extensions of Figure 3 plus the compiler-inserted
	// final-address helpers of Section 2.1.
	ReadFBit(a mem.Addr) bool
	UnforwardedRead(a mem.Addr) (uint64, bool)
	UnforwardedWrite(a mem.Addr, v uint64, fbit bool)
	FinalAddr(a mem.Addr) mem.Addr
	PtrEqual(a, b mem.Addr) bool

	// User-level forwarding traps (Section 3.2).
	SetTrap(h core.TrapHandler)

	// Heap. Allocator exposes the raw (untimed) allocator for arena
	// carving and heap aging; Malloc/Free are the timed guest calls.
	Malloc(n uint64) mem.Addr
	Free(a mem.Addr)
	Allocator() *mem.Allocator

	// Untimed functional substrate (tests, tools, digests): the tagged
	// memory and the dereference mechanism themselves. Reads through
	// these charge no simulated time and must not be used by guest code
	// on any measured path.
	Memory() *mem.Memory
	Forwarder() *core.Forwarder

	// LineSize is the primary-cache line size the layout optimizations
	// target (the oracle reports the configured target line size).
	LineSize() int

	// Fault injection (internal/fault). A machine carries at most one
	// machine-global injector; installing one hooks the tagged memory's
	// Unforwarded_Write path and the forwarder's chain walk, and the
	// guest's relocations (opt.MachineContext) journal through it.
	// Agents keep their injectors in their own relocation contexts,
	// never here. Guests never consult the injector; a nil injector is
	// the normal, fault-free state. SetFaultInjector(nil) uninstalls.
	FaultInjector() *fault.Injector
	SetFaultInjector(in *fault.Injector)

	// Observability; free of functional effect.
	Site(name string) int
	SetSite(id int)
	PhaseBegin(name string)
	PhaseEnd(name string)
	TraceRelocate(src, tgt mem.Addr, nWords int)
}

// Config selects one run variant of an application.
type Config struct {
	// Opt enables the locality optimization (the paper's L/LP bars);
	// false is the original layout (N/NP bars).
	Opt bool

	// Prefetch enables software prefetching at the application's
	// profiled top miss sites (Section 5.2).
	Prefetch bool

	// PrefetchBlock is the block-prefetch size in cache lines; the
	// harness sweeps it and reports the best per case, as the paper
	// does. Zero means 1.
	PrefetchBlock int

	// Static selects static placement (Section 1 of the paper): the
	// optimized layout is built directly at allocation time instead of
	// by relocation, so there is no relocation cost and no forwarding —
	// but also no ability to adapt to dynamic behaviour. Supported by
	// eqntott (whose optimization runs once); apps whose layouts must
	// adapt at run time ignore it.
	Static bool

	// Seed drives the workload generator; identical seeds produce
	// identical reference streams.
	Seed int64

	// Scale multiplies the default workload size (1 = standard).
	Scale int

	// Hooks are optional per-run observation callbacks (test support).
	// They travel with the Config instead of living in package-level
	// variables so that concurrent runs on the experiment engine never
	// share mutable state.
	Hooks Hooks
}

// Hooks are the per-run observation callbacks. Each field is consulted
// only by the application named in its comment; nil fields cost one
// comparison. Hooks observe simulated state mid-run and must not
// retain the *sim.Machine beyond the callback.
type Hooks struct {
	// BHTree observes (machine, rootHandle, bodyList) after each
	// build+summarize+cluster step (bh).
	BHTree func(m Machine, rootHandle, bodyList mem.Addr)

	// Table observes (machine, bucketsBase, nBuckets) after table
	// construction and any packing/linearization (eqntott, smv).
	Table func(m Machine, buckets mem.Addr, n int)

	// HealthStep is invoked after every simulation step with the
	// machine and the village addresses (health).
	HealthStep func(m Machine, villages []mem.Addr)

	// HealthVillage is invoked after each village's sub-step with
	// (step, villageIndex, villageAddr) (health).
	HealthVillage func(m Machine, step, village int, addr mem.Addr)

	// MSTEdge observes every inserted edge (mst; a host-side reference
	// MST can be computed over the same graph).
	MSTEdge func(a, b int, w uint64)

	// CompressInput receives the generated input bytes and
	// CompressEmit every output code, so tests can decode the stream
	// and verify the round trip (compress).
	CompressInput func([]byte)
	CompressEmit  func(uint64)
}

// Norm returns cfg with defaults applied.
func (c Config) Norm() Config {
	if c.PrefetchBlock <= 0 {
		c.PrefetchBlock = 1
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Result is what one application run reports back.
type Result struct {
	// Checksum is a functional digest of the computation; optimized
	// and unoptimized variants of the same workload must agree.
	Checksum uint64

	// Relocated counts objects moved by the optimization.
	Relocated int

	// SpaceOverhead is the relocation-target memory consumed, in
	// bytes (Table 1's "Space Overhead" column).
	SpaceOverhead uint64
}

// App describes one benchmark application.
type App struct {
	// Name as used in the paper (e.g. "health", "smv").
	Name string

	// Description and Optimization fill Table 1's columns.
	Description  string
	Optimization string

	// Run executes the workload on m under cfg.
	Run func(m Machine, cfg Config) Result
}

// NewRand returns the deterministic workload generator for a seed.
// Workload generation runs on the host; only the resulting guest
// behaviour is simulated.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// FragmentHeap ages the machine's heap the way a long-lived C process
// does before the measured phase begins: it allocates count blocks of
// blockBytes, then frees a random (1-keepFrac) subset in random order,
// leaving the allocator's free lists shuffled. Subsequent allocations
// of that size class land at effectively random addresses, which is the
// fragmentation regime the paper's applications run in (their inputs
// execute hundreds of millions of instructions before and during the
// measured phases). The aging itself is untimed: it models pre-existing
// heap state, not work done by the application.
func FragmentHeap(m Machine, blockBytes uint64, count int, keepFrac float64, rng *rand.Rand) {
	al := m.Allocator()
	blocks := make([]mem.Addr, count)
	for i := range blocks {
		blocks[i] = al.Alloc(blockBytes)
	}
	rng.Shuffle(count, func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	nFree := int(float64(count) * (1 - keepFrac))
	for _, a := range blocks[:nFree] {
		al.Free(a)
	}
}
