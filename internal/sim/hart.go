// Multi-hart support: P harts share one tagged memory, one allocator,
// and one forwarding mechanism (the functional, architectural state),
// while each hart owns its private timing state — an out-of-order
// pipeline, an L1+L2 hierarchy over the shared main memory, the
// instruction-mix down-counters, the pointer-provenance window, and its
// latency accumulators.
//
// Coherence protocol (DESIGN.md §12): the shared mem.Memory is the
// single point of serialization, so data words, fbit tags, and
// forwarding words are coherent by construction — a word access is one
// indivisible read or write of the word *and* its fbit against shared
// state. The caches carry timing only (no data), so keeping them
// coherent means keeping their *presence* information plausible: every
// store invalidates the written line in every other hart's L1 and L2
// (write-invalidate), forcing the next access on those harts to re-miss.
// Loads do not snoop — a remote dirty line costs the writer nothing
// extra here, a deliberate simplification (no ownership states, no
// write-back forwarding) that errs toward charging the reader a full
// miss. Forwarding words and fbits travel with their word's line, so
// the same invalidation covers all three classes.
package sim

import (
	"fmt"

	"memfwd/internal/addrtab"
	"memfwd/internal/cache"
	"memfwd/internal/cpu"
	"memfwd/internal/mem"
)

// MaxHarts bounds Config.Harts; the per-hart hierarchies are built
// eagerly, so an absurd count is a configuration error, caught where
// the CLIs and the session server validate their inputs.
const MaxHarts = 64

// hartState is one hart's private timing state. The machine's exported
// Pipe/L1/L2 fields and unexported hot-path fields always belong to the
// *current* hart; SetHart stashes them here and loads the target's.
// The pipe/l1/l2 pointers are immutable after New, so the stash only
// moves the mutable scalars.
type hartState struct {
	pipe *cpu.Pipeline
	l1   *cache.Cache
	l2   *cache.Cache

	mispredictCtr uint32
	depCtr        uint32
	ptrProv       provTable
	stats         Stats
}

// HartCount returns the number of harts the machine was built with.
func (m *Machine) HartCount() int {
	if m.harts == nil {
		return 1
	}
	return len(m.harts)
}

// SetHart switches the machine to execute as hart i: subsequent
// operations run on hart i's pipeline and caches and accumulate into
// its counters. Functional state (memory, fbits, allocator, forwarder)
// is shared and unaffected. The scheduler (internal/sched) brackets
// every relocator-hart step with a SetHart pair; guest code never calls
// this.
func (m *Machine) SetHart(i int) {
	if m.harts == nil {
		if i == 0 {
			return
		}
		panic(fmt.Sprintf("sim: SetHart(%d) on a single-hart machine", i))
	}
	if i < 0 || i >= len(m.harts) {
		panic(fmt.Sprintf("sim: SetHart(%d) out of range (harts=%d)", i, len(m.harts)))
	}
	if i == m.curHart {
		return
	}
	h := &m.harts[m.curHart]
	h.mispredictCtr, h.depCtr = m.mispredictCtr, m.depCtr
	h.ptrProv = m.ptrProv
	h.stats = m.stats
	t := &m.harts[i]
	m.Pipe, m.L1, m.L2 = t.pipe, t.l1, t.l2
	m.mispredictCtr, m.depCtr = t.mispredictCtr, t.depCtr
	m.ptrProv = t.ptrProv
	m.stats = t.stats
	m.curHart = i
}

// snoopStore is the write-invalidate hook: after a functional write by
// the current hart, the written line is invalidated in every other
// hart's caches, so their next access re-fetches through the shared
// hierarchy. Single-hart machines pay one nil check.
func (m *Machine) snoopStore(a mem.Addr) {
	if m.harts == nil {
		return
	}
	u := uint64(a)
	for i := range m.harts {
		if i == m.curHart {
			continue
		}
		h := &m.harts[i]
		if h.l1.Invalidate(u) {
			m.cohInvL1++
		}
		if h.l2.Invalidate(u) {
			m.cohInvL2++
		}
	}
}

// CoherenceInvalidations returns the number of remote-line
// invalidations performed at each cache level since construction.
// Deliberately not part of Stats: the figure pipelines serialize Stats
// byte-for-byte and their goldens must not move.
func (m *Machine) CoherenceInvalidations() (l1, l2 uint64) { return m.cohInvL1, m.cohInvL2 }

// buildHarts constructs the per-hart state for a multi-hart machine.
// Hart 0 aliases the machine's primary pipe/caches; harts 1..P-1 get
// fresh hierarchies chained onto the shared main memory.
func (m *Machine) buildHarts(cfg Config) {
	m.harts = make([]hartState, cfg.Harts)
	m.harts[0] = hartState{pipe: m.Pipe, l1: m.L1, l2: m.L2}
	for i := 1; i < cfg.Harts; i++ {
		l2 := cache.New(cache.Config{
			Name: "L2", SizeBytes: cfg.L2Size, LineSize: cfg.LineSize,
			Assoc: cfg.L2Assoc, HitLatency: cfg.L2HitLat, MSHRs: cfg.L2MSHRs,
			TransferBytesPerCycle: cfg.FillBytesPerCycle,
		}, m.MM)
		l1 := cache.New(cache.Config{
			Name: "L1", SizeBytes: cfg.L1Size, LineSize: cfg.LineSize,
			Assoc: cfg.L1Assoc, HitLatency: cfg.L1HitLat, MSHRs: cfg.L1MSHRs,
			TransferBytesPerCycle: cfg.FillBytesPerCycle,
		}, l2)
		m.harts[i] = hartState{
			pipe:          cpu.New(cfg.CPU),
			l1:            l1,
			l2:            l2,
			mispredictCtr: mispredictEvery,
			depCtr:        uint32(cfg.DepEvery),
			ptrProv:       addrtab.New[ptrEntry](m.provLimit),
		}
	}
}
