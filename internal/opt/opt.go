// Package opt implements the software side of memory forwarding: the
// relocation-based layout optimizations of Sections 2.2, 3.1 and 5 of
// the paper, written against the simulated machine so every instruction
// and memory reference they execute is charged.
//
//   - Relocate is Figure 4(a): move an object word by word, appending
//     the new location to the end of any existing forwarding chain.
//   - Pool supplies relocation targets from contiguous memory,
//     "thereby creating spatial locality" (Figure 4b).
//   - ListLinearize is Figure 4(b): pack the nodes of a linked list
//     into consecutive addresses, updating the list-head handle and the
//     internal next pointers.
//   - SubtreeCluster is the BH optimization (Figure 9): pack subtrees
//     into cache-line-sized clusters in balanced (breadth-first) form.
package opt

import (
	"errors"
	"fmt"

	"memfwd/internal/apps/app"
	"memfwd/internal/fault"
	"memfwd/internal/mem"
	"memfwd/internal/obs"
)

// ErrTorn is wrapped by TryRelocate when its verification phases find
// a copy or a plant that does not match what was written — a torn
// relocation. The heap is repairable from the relocation journal
// (fault.Scavenge / Injector.Repair).
var ErrTorn = errors.New("opt: torn relocation detected")

// Barrier is the relocation barrier a machine wrapper offers when
// relocations may be in flight concurrently with the caller (the
// multi-hart scheduler in internal/sched). TryRelocate calls it before
// touching any shared relocation state, so the wrapper can drain
// another in-flight relocation of the same source block: concurrent
// chain-append is illegal.
type Barrier interface {
	RelocationBarrier(src mem.Addr)
}

// spanRecorder is the machine surface span recording needs: both
// sim.Machine (cycle-accurate stamps) and oracle.Machine (Now constantly
// 0, zero-width phases) satisfy it. Wrappers do not; app.As finds the
// leaf machine beneath them.
type spanRecorder interface {
	RelocationSpans() *obs.SpanTable
	Now() int64
}

// Context is what one relocation runs with, besides the machine whose
// words it moves. Each mover builds its context once and runs every
// move through it: the guest path through MachineContext, the chaos
// adversary, the relocator harts and the tiering daemon through their
// own. The zero Context moves the words and nothing else.
type Context struct {
	// Faults journals the move, visits its step points and turns on
	// the read-back verification phases; nil runs none of that.
	Faults *fault.Injector

	// Private marks Faults as the mover's own, installed on no machine:
	// no memory hook sees the move's writes, so TryRelocate applies
	// Faults' write faults to its own copy and plant writes. An
	// installed injector (MachineContext's) is applied by the memory
	// hook, which must not filter a write twice.
	Private bool

	// Spans records one span per attempt, stamped by Clock (the
	// machine's cycle count); a nil Spans records nothing. Hart labels
	// the spans: 0 is the guest's hart.
	Spans *obs.SpanTable
	Clock interface{ Now() int64 }
	Hart  int

	// Barrier, when set, runs before the move touches anything.
	Barrier Barrier
}

// NewContext returns the context an agent outside the program moves
// m's blocks with: the relocation barrier and the span table of the
// first machines in m's wrapper chain that offer them, and no fault
// injector.
func NewContext(m app.Machine) Context {
	var c Context
	if b, ok := app.As[Barrier](m); ok {
		c.Barrier = b
	}
	if sr, ok := app.As[spanRecorder](m); ok {
		if st := sr.RelocationSpans(); st != nil {
			c.Spans, c.Clock = st, sr
		}
	}
	return c
}

// MachineContext is NewContext plus the machine-global fault injector
// installed on m, if any: the context of relocations that run as part
// of m's own execution — the guest's layout passes and the tiering
// daemon's migrations.
func MachineContext(m app.Machine) Context {
	c := NewContext(m)
	c.Faults = m.FaultInjector()
	return c
}

// Relocate moves nWords words of data from src to tgt and installs tgt
// as the forwarding address of src, as in Figure 4(a). It is
// TryRelocate with the paper's abort-on-failure policy: a forwarding
// cycle or a torn relocation panics, as the paper's runtime aborts on
// a confirmed cycle.
func Relocate(m app.Machine, src, tgt mem.Addr, nWords int) {
	if err := TryRelocate(m, src, tgt, nWords); err != nil {
		panic(fmt.Sprintf("opt: Relocate(%#x -> %#x, %d words): %v", src, tgt, nWords, err))
	}
}

// TryRelocate is Context.TryRelocate in the machine's context: the
// entry point of the guest's own relocations.
func TryRelocate(m app.Machine, src, tgt mem.Addr, nWords int) error {
	return MachineContext(m).TryRelocate(m, src, tgt, nWords)
}

// TryRelocate moves nWords words of data from src to tgt and installs
// tgt as the forwarding address of src. If a word of src has already
// been relocated, the walk follows its chain so tgt is appended at the
// end (the Figure 4(a) rule). src and tgt must be word-aligned and
// disjoint.
//
// The move is a two-phase commit, ordered so that aborting at any
// instruction boundary leaves the heap architecturally consistent:
//
//	Phase 1 (copy): every word's current value is copied from its
//	chain end into the target. These writes touch only the target —
//	memory no guest pointer resolves to — so the reachable heap is
//	untouched no matter where phase 1 stops.
//
//	Phase 2 (plant): each chain end is overwritten with a forwarding
//	word pointing at its copy. Every plant is a single atomic
//	Unforwarded_Write, and its copy already holds the identical
//	value, so after any prefix of plants every dereference still
//	yields the value it yielded before the relocation began.
//
// The chain-append walk is bounded: if a chain exceeds the forwarder's
// HopLimit the accurate cycle check runs once (the same
// Floyd-machinery escalation Resolve performs), returning an error
// wrapping core.ErrCycle on a confirmed cycle; an acyclic walk is
// still capped by ChainCap. The old implementation span forever on a
// cyclic chain.
//
// Everything else comes from c, never from the machine's slots or its
// wrapper chain. With c.Faults set, TryRelocate journals its intent
// through it (so fault.Scavenge can roll a torn relocation forward),
// announces the boundary fault points, and runs read-back verification
// after the copy phase and after each plant — the detection half of
// the fault model. With c.Faults nil the instruction sequence is
// exactly the two phases above.
//
// Under concurrent execution (internal/sched) two extra rules apply,
// both free at harts=1:
//
//   - c.Barrier runs first: the scheduler drains any in-flight
//     relocation of the same block (chains must not be appended to
//     concurrently);
//   - each plant refreshes its copy against the chain end's current
//     value just before the forwarding word is written, making the
//     read-copy-plant step atomic with respect to mutator stores (a
//     guest store between the copy phase and the plant would otherwise
//     commit a stale copy).
func (c Context) TryRelocate(m app.Machine, src, tgt mem.Addr, nWords int) error {
	if c.Barrier != nil {
		c.Barrier.RelocationBarrier(src)
	}
	inj := c.Faults
	var j *fault.Journal
	if inj != nil {
		j = &inj.Journal
	}
	fwd := m.Forwarder()
	rec := beginSpan(&c, fwd, src, tgt, nWords)

	j.Begin(src, tgt, nWords)
	inj.Step(fault.RelocateBegin)

	// Phase 1: walk each word's chain to its end and copy the value.
	var endsBuf [16]mem.Addr
	ends := endsBuf[:0]
	restore := inj.Region(fault.CopyWrite)
	for i := 0; i < nWords; i++ {
		s := src + mem.Addr(i*mem.WordSize)
		d := tgt + mem.Addr(i*mem.WordSize)
		m.Inst(3) // loop control and address generation
		v, fbit := m.UnforwardedRead(s)
		hops, checked := 0, false
		for fbit {
			// Append at the end of the existing forwarding chain.
			m.Inst(2)
			hops++
			if hops > fwd.HopLimit && !checked {
				// Escalate exactly as the hardware walk does: one
				// accurate (Floyd) cycle check from the chain start.
				checked = true
				if _, _, err := fwd.Resolve(src+mem.Addr(i*mem.WordSize), nil); err != nil {
					restore()
					err = fmt.Errorf("opt: relocating %#x word %d: %w", src, i, err)
					rec.finish(fwd, src, obs.RelocAborted, err)
					return err
				}
			}
			if hops > fwd.ChainCap {
				restore()
				err := fmt.Errorf("opt: relocating %#x word %d: chain exceeds cap %d", src, i, fwd.ChainCap)
				rec.finish(fwd, src, obs.RelocAborted, err)
				return err
			}
			s = mem.WordAlign(mem.Addr(v))
			v, fbit = m.UnforwardedRead(s)
		}
		c.write(m, d, v, false)
		ends = append(ends, s)
		j.RecordCopy(s)
		inj.Step(fault.RelocateCopied)
	}
	restore()
	rec.copyDone()

	// Copy verification, only under fault injection: re-read every copy
	// against its still-authoritative chain end, so a corrupted copy is
	// caught while the reachable heap is still untouched.
	if inj != nil {
		for i, e := range ends {
			d := tgt + mem.Addr(i*mem.WordSize)
			dv, dfb := m.UnforwardedRead(d)
			ev, _ := m.UnforwardedRead(e)
			if dfb || dv != ev {
				err := fmt.Errorf("%w: copy of word %d (%#x -> %#x)", ErrTorn, i, e, d)
				rec.finish(fwd, src, obs.RelocTorn, err)
				return err
			}
		}
		inj.Step(fault.RelocateVerify)
		rec.verifyDone()
	}

	// Phase 2: plant the forwarding words, each one atomic.
	restore = inj.Region(fault.PlantWrite)
	for i, e := range ends {
		d := tgt + mem.Addr(i*mem.WordSize)
		m.Inst(1)
		// Refresh the copy against the chain end's current value: under
		// concurrent mutators a guest store may have legally landed on e
		// since the copy phase read it. The reads and the fix-up write
		// are functional (the timed walk was already charged in phase
		// 1), and at harts=1 neither branch can fire — e cannot have
		// changed — so single-hart timing and output are untouched.
		cur, cfb := fwd.UnforwardedRead(e)
		if cfb {
			// e already forwards: unreachable under the scheduler's
			// barrier discipline (distinct relocations never share a
			// chain end, and same-block relocations are drained), kept
			// as a defensive skip — planting over a foreign forwarding
			// word would orphan its copy.
			continue
		}
		if dv, _ := fwd.UnforwardedRead(d); dv != cur {
			fwd.UnforwardedWrite(d, cur, false)
		}
		c.write(m, e, uint64(d), true)
		if inj != nil {
			// Plant verification: corruption after this point is no
			// longer caught by the copy check, so read the plant back.
			ev, efb := m.UnforwardedRead(e)
			if !efb || mem.Addr(ev) != d {
				restore()
				err := fmt.Errorf("%w: plant of word %d at %#x", ErrTorn, i, e)
				rec.finish(fwd, src, obs.RelocTorn, err)
				return err
			}
		}
		inj.Step(fault.RelocatePlant)
	}
	restore()
	rec.plantDone()

	inj.Step(fault.RelocateEnd)
	j.Commit()
	m.TraceRelocate(src, tgt, nWords)
	rec.finish(fwd, src, obs.RelocCommitted, nil)
	return nil
}

// write is one of the move's own copy or plant writes, through a
// private injector's write faults: a crash fires before the write
// lands, a corruption alters it.
func (c *Context) write(m app.Machine, a mem.Addr, v uint64, fbit bool) {
	if c.Private {
		v, fbit = c.Faults.FilterWrite(a, v, fbit)
	}
	m.UnforwardedWrite(a, v, fbit)
}

// Pool hands out relocation targets from contiguous memory. When one
// arena fills, the pool chains to a fresh one; consecutive Alloc calls
// within an arena are strictly adjacent, which is what creates spatial
// locality after relocation.
type Pool struct {
	m     app.Machine
	arena *mem.Arena
	chunk uint64

	// BytesUsed is the total relocation-target storage consumed — the
	// paper's Table 1 "Space Overhead" column.
	BytesUsed uint64
}

// NewPool creates a pool whose arenas are chunkBytes each.
func NewPool(m app.Machine, chunkBytes uint64) *Pool {
	if chunkBytes < 4*mem.WordSize {
		chunkBytes = 4 * mem.WordSize
	}
	return &Pool{m: m, chunk: chunkBytes}
}

// Alloc returns n contiguous bytes of fresh relocation-target memory.
func (p *Pool) Alloc(n uint64) mem.Addr {
	p.m.Inst(2) // bump-pointer allocation
	if p.arena != nil {
		if a := p.arena.Alloc(n); a != 0 {
			p.BytesUsed += n
			return a
		}
	}
	chunk := p.chunk
	if n > chunk {
		chunk = n
	}
	p.arena = mem.NewArena(p.m.Allocator(), chunk)
	a := p.arena.Alloc(n)
	if a == 0 {
		panic("opt: fresh arena could not satisfy allocation")
	}
	p.BytesUsed += n
	return a
}

// AlignTo advances the pool cursor so the next Alloc starts at a
// multiple of align (used to keep clusters from straddling lines).
func (p *Pool) AlignTo(align uint64) {
	p.m.Inst(2)
	if p.arena == nil {
		p.arena = mem.NewArena(p.m.Allocator(), p.chunk)
	}
	p.arena.AlignTo(align)
}

// ListDesc describes the layout of a singly linked list's nodes.
type ListDesc struct {
	NodeBytes uint64 // node size (word multiple)
	NextOff   uint64 // byte offset of the next pointer within the node
}

// ListLinearize relocates every node of the list whose head pointer is
// stored at headHandle into consecutive pool addresses, exactly as the
// paper's Figure 4(b): the head handle and each copied next pointer are
// updated to the new locations, so subsequent traversals through the
// head touch only the new, dense layout. Stray pointers to old node
// addresses keep working via forwarding. Returns the node count.
func ListLinearize(m app.Machine, p *Pool, headHandle mem.Addr, d ListDesc) int {
	words := int(d.NodeBytes / mem.WordSize)
	n := 0
	handle := headHandle
	node := m.LoadPtr(handle)
	for node != 0 {
		m.Inst(3) // loop control
		tgt := p.Alloc(d.NodeBytes)
		Relocate(m, node, tgt, words)
		m.StorePtr(handle, tgt)
		handle = tgt + mem.Addr(d.NextOff)
		// The copied next pointer still holds the old address of the
		// next node; read it directly from the new copy.
		node = m.LoadPtr(handle)
		n++
	}
	return n
}

// TreeDesc describes the layout of a tree's nodes.
type TreeDesc struct {
	NodeBytes uint64
	ChildOffs []uint64 // byte offsets of the child pointers
}

// SubtreeCluster relocates the tree rooted at the pointer stored in
// rootHandle so that each cluster of clusterBytes holds a subtree
// packed in the most balanced (breadth-first) form, per the BH
// case study (Figure 9). Children that do not fit the current cluster
// seed new clusters. Returns the number of nodes relocated.
func SubtreeCluster(m app.Machine, p *Pool, rootHandle mem.Addr, d TreeDesc, clusterBytes uint64) int {
	perCluster := int(clusterBytes / d.NodeBytes)
	if perCluster < 1 {
		perCluster = 1
	}
	words := int(d.NodeBytes / mem.WordSize)
	count := 0

	clusterRoots := []mem.Addr{rootHandle}
	var q []mem.Addr
	for len(clusterRoots) > 0 {
		h := clusterRoots[len(clusterRoots)-1]
		clusterRoots = clusterRoots[:len(clusterRoots)-1]
		m.Inst(2)
		if m.LoadPtr(h) == 0 {
			continue
		}
		p.AlignTo(clusterBytes)
		q = append(q[:0], h)
		taken := 0
		for len(q) > 0 && taken < perCluster {
			handle := q[0]
			q = q[1:]
			m.Inst(3)
			node := m.LoadPtr(handle)
			if node == 0 {
				continue
			}
			tgt := p.Alloc(d.NodeBytes)
			Relocate(m, node, tgt, words)
			m.StorePtr(handle, tgt)
			taken++
			count++
			for _, off := range d.ChildOffs {
				q = append(q, tgt+mem.Addr(off))
			}
		}
		// Whatever remains in breadth-first order roots new clusters.
		clusterRoots = append(clusterRoots, q...)
		q = q[:0]
	}
	return count
}
