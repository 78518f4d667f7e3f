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

// relocationBarrier is the optional interface a machine wrapper
// implements when relocations may be in flight concurrently with the
// caller (the multi-hart scheduler in internal/sched). TryRelocate
// invokes it before touching any shared relocation state — before even
// reading the machine's fault injector — so the wrapper can drain
// conflicting in-flight work: another relocation of the same source
// block (concurrent chain-append is illegal) or any faulted relocation
// (the journal and armed injector must be exclusively owned).
// TryRelocate finds it with app.As, however deep in the wrapper chain
// (under the tier daemon, the chaos relocator) the wrapper sits.
type relocationBarrier interface {
	RelocationBarrier(src mem.Addr)
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
// When the machine carries a fault.Injector, TryRelocate additionally
// journals its intent through it (so fault.Scavenge can roll a torn
// relocation forward), announces the boundary fault points, and runs
// read-back verification after the copy phase and after each plant —
// the detection half of the fault model. Without an injector the
// instruction sequence is exactly the two phases above.
//
// Under concurrent execution (internal/sched) two extra rules apply,
// both free at harts=1:
//
//   - the RelocationBarrier hook of the first machine in the wrapper
//     chain that has one runs first, before the injector is read: the
//     scheduler drains any in-flight relocation of the same block
//     (chains must not be appended to concurrently) and any in-flight
//     *faulted* relocation (the journal and the armed injector are
//     exclusive state);
//   - each plant refreshes its copy against the chain end's current
//     value just before the forwarding word is written, making the
//     read-copy-plant step atomic with respect to mutator stores (a
//     guest store between the copy phase and the plant would otherwise
//     commit a stale copy).
func TryRelocate(m app.Machine, src, tgt mem.Addr, nWords int) error {
	if b, ok := app.As[relocationBarrier](m); ok {
		b.RelocationBarrier(src)
	}
	inj := m.FaultInjector()
	var j *fault.Journal
	if inj != nil {
		j = &inj.Journal
	}
	fwd := m.Forwarder()
	rec := beginSpan(m, fwd, inj, src, tgt, nWords)

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
		m.UnforwardedWrite(d, v, false)
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
		m.UnforwardedWrite(e, uint64(d), true)
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
