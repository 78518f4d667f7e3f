// Package opt implements the software side of memory forwarding: the
// relocation-based layout optimizations of Sections 2.2, 3.1 and 5 of
// the paper, written against the simulated machine so every instruction
// and memory reference they execute is charged.
//
//   - Relocate is Figure 4(a): move an object word by word, appending
//     the new location to the end of any existing forwarding chain.
//     Its two-phase commit is a Move, which a caller may Step one word
//     access at a time, as the relocator harts of internal/sched do.
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
	"memfwd/internal/core"
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
//
// TryRelocate runs the move in one go; a relocator hart runs the same
// Move one Step at a time.
func (c Context) TryRelocate(m app.Machine, src, tgt mem.Addr, nWords int) error {
	mv := c.NewMove(m, src, tgt, nWords)
	for {
		if done, err := mv.Step(); done {
			return err
		}
	}
}

// Move is one TryRelocate in progress, held as a value so its caller
// can run it a word access at a time: the relocator harts of
// internal/sched interleave their moves with the guest that way, and
// TryRelocate steps its move straight through.
type Move struct {
	c        Context
	m        app.Machine
	fwd      *core.Forwarder
	src, tgt mem.Addr
	n        int

	j       *fault.Journal // c.Faults' journal; nil without an injector
	rec     relocSpan
	restore func() // leaves the write region the current phase armed

	phase   phase
	i       int      // the word the phase is at
	at      mem.Addr // word i's chain position
	v       uint64   // what the last read returned
	fbit    bool
	dv      uint64 // copy verification: word i's copy, read back
	dfb     bool
	hops    int
	checked bool  // word i's chain has had its accurate cycle check
	err     error // the outcome, once done

	// The chain ends of words 0-15, then of the rest. The array is
	// inline, not a slice into it, so a Move on the stack stays there.
	ends [16]mem.Addr
	more []mem.Addr
}

// phase is where a Move resumes: each but the first and last names the
// word access the previous Step ended with.
type phase uint8

const (
	moveStart      phase = iota
	moveChain            // read word i's chain position into v, fbit
	moveCopied           // wrote word i's copy
	moveCheckCopy        // read word i's copy back into dv, dfb
	moveCheckEnd         // read word i's chain end back into v
	movePlanted          // wrote word i's forwarding word
	moveCheckPlant       // read word i's forwarding word back into v, fbit
	moveDone
)

// NewMove returns the move of nWords words from src to tgt on m, in
// context c. It does no machine work: the first Step runs the barrier.
func (c Context) NewMove(m app.Machine, src, tgt mem.Addr, nWords int) *Move {
	mv := &Move{c: c, m: m, src: src, tgt: tgt, n: nWords}
	if c.Faults != nil {
		mv.j = &c.Faults.Journal
	}
	return mv
}

// Step runs the move up to and including its next word access on its
// machine, an UnforwardedRead or an UnforwardedWrite, and reports
// whether the move has ended, with TryRelocate's error when it has.
// The step after the last access ends the move and makes none. An
// injected crash panics out of the step that would have made the
// access.
func (mv *Move) Step() (done bool, err error) {
	m, inj := mv.m, mv.c.Faults
	switch mv.phase {
	case moveStart:
		if mv.c.Barrier != nil {
			mv.c.Barrier.RelocationBarrier(mv.src)
		}
		mv.fwd = m.Forwarder()
		mv.rec.begin(&mv.c, mv.fwd, mv.src, mv.tgt, mv.n)
		mv.j.Begin(mv.src, mv.tgt, mv.n)
		inj.Step(fault.RelocateBegin)
		// Phase 1: walk each word's chain to its end and copy the value.
		mv.restore = inj.Region(fault.CopyWrite)
		return mv.copyWord(0)
	case moveChain:
		if !mv.fbit {
			mv.c.write(m, mv.tgt+wordOff(mv.i), mv.v, false)
			mv.phase = moveCopied
			return false, nil
		}
		// Append at the end of the existing forwarding chain.
		m.Inst(2)
		mv.hops++
		fwd := mv.fwd
		if mv.hops > fwd.HopLimit && !mv.checked {
			// Escalate exactly as the hardware walk does: one accurate
			// (Floyd) cycle check from the chain start.
			mv.checked = true
			if _, _, err := fwd.Resolve(mv.src+wordOff(mv.i), nil); err != nil {
				mv.restore()
				return mv.finish(obs.RelocAborted, fmt.Errorf("opt: relocating %#x word %d: %w", mv.src, mv.i, err))
			}
		}
		if mv.hops > fwd.ChainCap {
			mv.restore()
			return mv.finish(obs.RelocAborted, fmt.Errorf("opt: relocating %#x word %d: chain exceeds cap %d", mv.src, mv.i, fwd.ChainCap))
		}
		mv.at = mem.WordAlign(mem.Addr(mv.v))
		mv.v, mv.fbit = m.UnforwardedRead(mv.at)
		return false, nil
	case moveCopied:
		if mv.i < len(mv.ends) {
			mv.ends[mv.i] = mv.at
		} else {
			if mv.more == nil {
				mv.more = make([]mem.Addr, 0, mv.n-len(mv.ends))
			}
			mv.more = append(mv.more, mv.at)
		}
		mv.j.RecordCopy(mv.at)
		inj.Step(fault.RelocateCopied)
		return mv.copyWord(mv.i + 1)
	case moveCheckCopy:
		mv.v, _ = m.UnforwardedRead(mv.end(mv.i))
		mv.phase = moveCheckEnd
		return false, nil
	case moveCheckEnd:
		if mv.dfb || mv.dv != mv.v {
			return mv.finish(obs.RelocTorn, fmt.Errorf("%w: copy of word %d (%#x -> %#x)", ErrTorn, mv.i, mv.end(mv.i), mv.tgt+wordOff(mv.i)))
		}
		return mv.checkCopy(mv.i + 1)
	case movePlanted:
		if inj != nil {
			// Plant verification: corruption after this point is no
			// longer caught by the copy check, so read the plant back.
			mv.v, mv.fbit = m.UnforwardedRead(mv.end(mv.i))
			mv.phase = moveCheckPlant
			return false, nil
		}
		return mv.plant(mv.i + 1)
	case moveCheckPlant:
		if e := mv.end(mv.i); !mv.fbit || mem.Addr(mv.v) != mv.tgt+wordOff(mv.i) {
			mv.restore()
			return mv.finish(obs.RelocTorn, fmt.Errorf("%w: plant of word %d at %#x", ErrTorn, mv.i, e))
		}
		inj.Step(fault.RelocatePlant)
		return mv.plant(mv.i + 1)
	}
	return true, mv.err
}

// copyWord reads word i's chain start, or ends the copy phase after the
// last word.
func (mv *Move) copyWord(i int) (bool, error) {
	mv.i = i
	if i < mv.n {
		mv.m.Inst(3) // loop control and address generation
		mv.at = mv.src + wordOff(i)
		mv.v, mv.fbit = mv.m.UnforwardedRead(mv.at)
		mv.hops, mv.checked = 0, false
		mv.phase = moveChain
		return false, nil
	}
	mv.restore()
	mv.rec.stamp(&mv.rec.tCopy)
	if mv.c.Faults != nil {
		// Copy verification, only under fault injection: re-read every
		// copy against its still-authoritative chain end, so a corrupted
		// copy is caught while the reachable heap is still untouched.
		return mv.checkCopy(0)
	}
	return mv.plantPhase()
}

// checkCopy reads word i's copy back, or ends copy verification after
// the last word.
func (mv *Move) checkCopy(i int) (bool, error) {
	mv.i = i
	if i < mv.n {
		mv.dv, mv.dfb = mv.m.UnforwardedRead(mv.tgt + wordOff(i))
		mv.phase = moveCheckCopy
		return false, nil
	}
	mv.c.Faults.Step(fault.RelocateVerify)
	mv.rec.stamp(&mv.rec.tVerify)
	return mv.plantPhase()
}

// plantPhase starts phase 2: plant the forwarding words, each atomic.
func (mv *Move) plantPhase() (bool, error) {
	mv.restore = mv.c.Faults.Region(fault.PlantWrite)
	return mv.plant(0)
}

// plant plants word i's forwarding word, or the next word's whose chain
// end does not already forward, or ends the move after the last word.
func (mv *Move) plant(i int) (bool, error) {
	fwd := mv.fwd
	for ; i < mv.n; i++ {
		e, d := mv.end(i), mv.tgt+wordOff(i)
		mv.m.Inst(1)
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
		mv.c.write(mv.m, e, uint64(d), true)
		mv.i = i
		mv.phase = movePlanted
		return false, nil
	}
	mv.restore()
	mv.rec.stamp(&mv.rec.tPlant)
	mv.c.Faults.Step(fault.RelocateEnd)
	mv.j.Commit()
	mv.m.TraceRelocate(mv.src, mv.tgt, mv.n)
	return mv.finish(obs.RelocCommitted, nil)
}

// finish ends the move with its outcome and records its span.
func (mv *Move) finish(outcome obs.RelocOutcome, err error) (bool, error) {
	mv.rec.finish(mv.fwd, mv.src, outcome, err)
	mv.phase, mv.err = moveDone, err
	return true, err
}

// end returns word i's chain end.
func (mv *Move) end(i int) mem.Addr {
	if i < len(mv.ends) {
		return mv.ends[i]
	}
	return mv.more[i-len(mv.ends)]
}

func wordOff(i int) mem.Addr { return mem.Addr(i * mem.WordSize) }

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
