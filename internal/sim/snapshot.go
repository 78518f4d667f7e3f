package sim

import (
	"fmt"

	"memfwd/internal/cache"
	"memfwd/internal/core"
	"memfwd/internal/cpu"
	"memfwd/internal/fault"
	"memfwd/internal/mem"
)

// MachineState is a full-machine snapshot: every byte of functional
// state (pages, fbits, allocator maps) and every cycle of timing state
// (pipeline cursors, cache tags, MSHRs, provenance window), deep-copied
// so the snapshot is immutable and reusable. Restoring it into any
// Machine built with the same Config — on any shard, in any order,
// any number of times — resumes execution deterministically: the
// continuation is instruction-for-instruction and byte-for-byte
// identical to the source machine's (DESIGN.md §10).
//
// Two kinds of field are deliberately process-local values rather than
// deep copies:
//
//   - trap and faultInj travel verbatim. The trap handler is captured
//     at its CURRENT value — fireTrap masks the handler to nil for the
//     handler's duration, so a machine suspended inside a user-level
//     forwarding trap restores with the mask intact, preserving the
//     no-recursive-trap invariant. LoadState re-installs the injector
//     through SetFaultInjector so its hooks rewire onto the target's
//     Mem and Fwd.
//   - Observability attachments (tracer, heat map, span table, sample
//     series) are NOT part of the state: they belong to whichever
//     machine is running. LoadState keeps the target's attachments and
//     restores only the sampler's interval accounting so sample
//     boundaries stay aligned with the restored instruction counts.
type MachineState struct {
	cfg Config

	mem   *mem.MemorySnapshot
	alloc *mem.AllocatorSnapshot
	fwd   core.ForwarderSnapshot
	l1    *cache.CacheSnapshot
	l2    *cache.CacheSnapshot
	mm    cache.MainMemorySnapshot
	pipe  *cpu.PipelineSnapshot

	trap     core.TrapHandler
	faultInj *fault.Injector

	sites   []string
	curSite int

	mispredictCtr uint32
	depCtr        uint32

	prov      provTable
	provLimit int

	phases      []string
	sampleEvery uint64
	sampleNext  uint64
	samplePrev  Stats

	stats     Stats
	finalized bool

	// Extra-hart timing state (harts 1..P-1; empty on a single-hart
	// machine). Hart 0 is the primary state above. The save-side
	// contract pins curHart to 0, so restore needs no cursor.
	harts    []hartSnap
	cohInvL1 uint64
	cohInvL2 uint64
}

// hartSnap is one extra hart's private timing state in a snapshot.
type hartSnap struct {
	pipe          *cpu.PipelineSnapshot
	l1, l2        *cache.CacheSnapshot
	mispredictCtr uint32
	depCtr        uint32
	prov          provTable
	stats         Stats
}

// Config returns the configuration the state was captured under; a
// target machine must be built with an equal Config.
func (st *MachineState) Config() Config { return st.cfg }

// SaveState captures a deep snapshot of the machine. The machine must
// be quiescent (no guest operation in flight); serve sessions guarantee
// this by parking the runner at an operation boundary first. A
// multi-hart machine must additionally be parked on hart 0 — the
// scheduler restores the guest hart after every service step, so any
// operation boundary satisfies this.
func (m *Machine) SaveState() *MachineState {
	if m.curHart != 0 {
		panic(fmt.Sprintf("sim: SaveState on hart %d (must be parked on hart 0)", m.curHart))
	}
	var harts []hartSnap
	for i := 1; i < len(m.harts); i++ {
		h := &m.harts[i]
		harts = append(harts, hartSnap{
			pipe:          h.pipe.Snapshot(),
			l1:            h.l1.Snapshot(),
			l2:            h.l2.Snapshot(),
			mispredictCtr: h.mispredictCtr,
			depCtr:        h.depCtr,
			prov:          h.ptrProv.Clone(),
			stats:         h.stats,
		})
	}
	return &MachineState{
		harts:         harts,
		cohInvL1:      m.cohInvL1,
		cohInvL2:      m.cohInvL2,
		cfg:           m.cfg,
		mem:           m.Mem.Snapshot(),
		alloc:         m.Alloc.Snapshot(),
		fwd:           m.Fwd.Snapshot(),
		l1:            m.L1.Snapshot(),
		l2:            m.L2.Snapshot(),
		mm:            m.MM.Snapshot(),
		pipe:          m.Pipe.Snapshot(),
		trap:          m.trap,
		faultInj:      m.faultInj,
		sites:         append([]string(nil), m.sites...),
		curSite:       m.curSite,
		mispredictCtr: m.mispredictCtr,
		depCtr:        m.depCtr,
		prov:          m.ptrProv.Clone(),
		provLimit:     m.provLimit,
		phases:        append([]string(nil), m.phases...),
		sampleEvery:   m.sampleEvery,
		sampleNext:    m.sampleNext,
		samplePrev:    m.samplePrev,
		stats:         m.stats,
		finalized:     m.finalized,
	}
}

// LoadState restores a snapshot into m, which must have been built
// with the same Config (validated; the pipeline and cache layers
// re-validate their own geometry). The state is deep-copied in, so the
// same MachineState can seed several machines. See the MachineState
// doc for what travels verbatim versus what stays with the target.
func (m *Machine) LoadState(st *MachineState) error {
	if m.cfg != st.cfg {
		return fmt.Errorf("sim: LoadState config mismatch: machine %+v, state %+v", m.cfg, st.cfg)
	}
	m.Mem.Restore(st.mem)
	m.Alloc.Restore(st.alloc)
	m.Fwd.Restore(st.fwd)
	if err := m.L1.Restore(st.l1); err != nil {
		return fmt.Errorf("sim: LoadState: %w", err)
	}
	if err := m.L2.Restore(st.l2); err != nil {
		return fmt.Errorf("sim: LoadState: %w", err)
	}
	m.MM.Restore(st.mm)
	if err := m.Pipe.Restore(st.pipe); err != nil {
		return fmt.Errorf("sim: LoadState: %w", err)
	}
	m.trap = st.trap
	m.SetFaultInjector(st.faultInj) // rewires hooks onto m.Mem / m.Fwd
	m.sites = append(m.sites[:0], st.sites...)
	m.curSite = st.curSite
	m.mispredictCtr = st.mispredictCtr
	m.depCtr = st.depCtr
	m.ptrProv = st.prov.Clone()
	m.provLimit = st.provLimit
	m.phases = append(m.phases[:0], st.phases...)
	m.sampleEvery = st.sampleEvery
	m.sampleNext = st.sampleNext
	m.samplePrev = st.samplePrev
	m.stats = st.stats
	m.finalized = st.finalized
	m.hopScratch = m.hopScratch[:0]
	m.chainScratch = m.chainScratch[:0]
	// Extra harts: the cfg equality check above guarantees the counts
	// match (Harts is part of Config). The restored machine parks on
	// hart 0, mirroring the save-side contract.
	m.curHart = 0
	for i := range st.harts {
		h := &m.harts[i+1]
		src := &st.harts[i]
		if err := h.pipe.Restore(src.pipe); err != nil {
			return fmt.Errorf("sim: LoadState hart %d: %w", i+1, err)
		}
		if err := h.l1.Restore(src.l1); err != nil {
			return fmt.Errorf("sim: LoadState hart %d: %w", i+1, err)
		}
		if err := h.l2.Restore(src.l2); err != nil {
			return fmt.Errorf("sim: LoadState hart %d: %w", i+1, err)
		}
		h.mispredictCtr = src.mispredictCtr
		h.depCtr = src.depCtr
		h.ptrProv = src.prov.Clone()
		h.stats = src.stats
	}
	m.cohInvL1 = st.cohInvL1
	m.cohInvL2 = st.cohInvL2
	return nil
}
