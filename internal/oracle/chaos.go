package oracle

import (
	"fmt"
	"math/rand"

	"memfwd/internal/agent"
	"memfwd/internal/apps/app"
	"memfwd/internal/core"
	"memfwd/internal/fault"
	"memfwd/internal/mem"
	"memfwd/internal/opt"
)

// Relocator is a seeded adversary implementing app.Machine: it wraps an
// inner machine through app.Interceptor, hooks the guest's data
// operations, and interleaves the guest's execution with random legal
// relocations of the guest's own heap blocks. The paper's central
// claim is that relocation is *always* safe — at any point, of any
// object, any number of times — so an adversary that relocates behind
// the program's back must never change what the program computes. The
// differential harness checks exactly that: a chaos-wrapped run must
// produce the same app.Result and the same heap digest (modulo
// forwarding) as an unperturbed run.
//
// Adversarial repertoire, all legal per the paper's rules:
//
//   - block relocation to a private arena *outside* the guest heap
//     (so allocator behaviour, which is functional state, is never
//     perturbed), word by word with offset-preserving chains;
//   - chain-lengthening re-relocation: an already-relocated block is
//     relocated again by appending a forwarding word at the current
//     chain end, growing chains past the forwarder's HopLimit and into
//     its false-alarm cycle-check path;
//   - misaligned probe chains: forwarding words holding *misaligned*
//     addresses, built for a specific byte offset and verified at that
//     offset through the inner machine's full load path (Section 2.1:
//     the byte offset within the word is preserved at every hop);
//   - cyclic probes: deliberately closed misaligned chains, verified
//     to be reported as ErrCycle by the accurate cycle check, then
//     dissolved.
//
// Every probe word holds a misaligned address on purpose: whole-memory
// sweeps (CheckForwarding) resolve only offset-independent — i.e.
// word-aligned — forwarding words, so keeping probes misaligned marks
// them as offset-specific and leaves the sweep sound.
//
// All decisions come from a seeded rand.Rand driven only by the guest's
// operation sequence, so a failing episode replays from its seed.
type Relocator struct {
	app.Interceptor
	rng *rand.Rand

	clock agent.Clock

	// Tracked guest blocks eligible for relocation (Malloc-intercepted,
	// size-capped), and the private target arena in slot 0, with the
	// episode's relocated-word budget.
	victims agent.Victims
	arena   agent.Arena

	guestTrap core.TrapHandler
	inChaos   bool
	ctx       opt.Context // the inner machine's barrier and span table

	// Fault-injection repertoire (EnableFaults).
	faults     bool
	faultKinds []fault.Kind

	// Episode statistics.
	Relocations  int
	Lengthenings int
	Probes       int
	CyclicProbes int

	// FaultsInjected counts faulted relocations whose armed fault
	// actually fired; FaultsRepaired counts the subset whose torn state
	// the scavenger had to roll forward.
	FaultsInjected int
	FaultsRepaired int
}

var _ app.Machine = (*Relocator)(nil)

// NewRelocator wraps inner with a chaos adversary seeded by seed.
// interval is the mean number of guest operations between chaos
// actions (0 takes a default of 64; at most agent.MaxEvery).
func NewRelocator(inner app.Machine, seed int64, interval int) *Relocator {
	if interval <= 0 {
		interval = 64
	}
	r := &Relocator{
		rng:   rand.New(rand.NewSource(seed)),
		arena: agent.NewArena(inner.Allocator(), 0),
	}
	r.Interceptor = app.NewInterceptor(inner, r)
	r.clock = agent.NewClock(interval, r.rng)
	r.ctx = opt.NewContext(inner)
	return r
}

// EnableFaults adds the fault-injection action to the repertoire: some
// chaos actions then relocate a block with a deterministic fault armed
// — a crash at a random instruction boundary, a forwarding-word bit
// flip, a spurious fbit set or clear — recover it, repair the heap from
// the relocation journal, and verify the roll-forward. kinds restricts
// what is injected; nil allows every kind.
func (r *Relocator) EnableFaults(kinds []fault.Kind) {
	r.faults = true
	if len(kinds) == 0 {
		kinds = []fault.Kind{fault.Crash, fault.FlipBit, fault.FBitSet, fault.FBitClear}
	}
	r.faultKinds = kinds
}

// tick runs before every intercepted guest operation and fires a chaos
// action when the clock expires. Actions run with the guest's trap
// handler masked: the adversary models an agent outside the program,
// and its own probe references must not invoke guest trap code.
func (r *Relocator) tick() {
	if r.inChaos || !r.clock.Tick(r.rng) {
		return
	}
	r.inChaos = true
	r.Machine.SetTrap(nil)
	defer func() {
		r.Machine.SetTrap(r.guestTrap)
		r.inChaos = false
	}()
	switch n := r.rng.Intn(12); {
	case n < 7:
		r.relocate(false)
	case n < 9:
		r.probe(false)
	case n < 10:
		r.probe(true)
	default:
		r.relocate(r.faults)
	}
}

// relocate moves one randomly chosen tracked block to a fresh arena
// copy. agent.Relocate appends the new forwarding word at the *end* of
// any existing chain — the Figure 4(a) rule, and the only legal form:
// the program may hold direct pointers to the current final copy, so
// the data must move from there (repointing the chain head instead is
// a heap divergence the differential harness catches, DESIGN.md §7).
// Re-relocating a moved block therefore lengthens its chain, driving
// chains past HopLimit and into the false-alarm cycle check.
//
// A faulted relocation arms a freshly seeded private injector so the
// fault is sure to fire inside the move — a crash at a random
// instruction boundary, a bit flip on a copy or plant write, or a
// spurious fbit transition — and, once agent.Relocate has rolled the
// torn move forward, checks every copy against the block's pre-move
// values with the machine's timed reads. The injector travels in the
// move's own context, never in the machine's slot: a chaos move takes
// no scheduling point, so its writes are exactly TryRelocate's copy and
// plant writes, which TryRelocate filters through it. The guest
// observes none of it; the surrounding differential episode proves
// that end to end.
func (r *Relocator) relocate(faulted bool) {
	al := r.Machine.Allocator()
	base := r.victims.Pick(r.rng, al)
	if base == 0 {
		return
	}
	size, ok := al.SizeOf(base)
	if !ok {
		return
	}
	tgt := r.arena.Target(size)
	if tgt == 0 {
		return
	}
	words := int(size / mem.WordSize)
	var (
		want []uint64
		plan fault.Shot // the armed fault, for failure reports
	)
	ctx := r.ctx
	if faulted {
		want = r.values(base, words)
		ctx.Faults, ctx.Private = fault.New(r.rng.Int63()), true
		plan.Kind = r.faultKinds[r.rng.Intn(len(r.faultKinds))]
		plan.Point, plan.Visit = r.armPoint(plan.Kind, words)
		ctx.Faults.Arm(plan.Kind, plan.Point, plan.Visit)
	} else if r.Machine.Memory().FBit(base) {
		// Untimed peek: a first word that already forwards means this
		// relocation lengthens an existing chain.
		r.Lengthenings++
	}
	repaired, err := agent.Relocate(r.Machine, ctx, base, tgt, words)
	if err != nil {
		panic(fmt.Sprintf("oracle: chaos relocation of %#x (%d words): %v", base, words, err))
	}
	if ctx.Faults.Fired() {
		r.FaultsInjected++
	}
	if repaired {
		r.FaultsRepaired++
	}
	if faulted {
		// Completed or rolled forward, the outcome must be identical:
		// each word lives at its copy with its old value.
		if err := agent.CheckMoved(r.Machine.Forwarder(), base, tgt, words); err != nil {
			panic(fmt.Sprintf("oracle: post-repair (%v): %v", plan, err))
		}
		for i, w := range r.values(tgt, words) { // the copies, which no longer forward
			if w != want[i] {
				panic(fmt.Sprintf("oracle: post-repair word %d of %#x = %#x, want %#x (%v)", i, base, w, want[i], plan))
			}
		}
	}
	r.Relocations++
}

// values reads the words words of the block at base through any
// forwarding chains, each with the machine's timed Unforwarded_Read.
func (r *Relocator) values(base mem.Addr, words int) []uint64 {
	fwd := r.Machine.Forwarder()
	vs := make([]uint64, words)
	for i := range vs {
		final, _, err := fwd.Resolve(base+mem.Addr(i*mem.WordSize), nil)
		if err != nil {
			panic(fmt.Sprintf("oracle: faulted relocation of %#x: %v", base, err))
		}
		vs[i], _ = r.Machine.UnforwardedRead(mem.WordAlign(final))
	}
	return vs
}

// armPoint draws a fault point and a visit count that guarantees the
// armed plan fires during a words-long relocation.
func (r *Relocator) armPoint(kind fault.Kind, words int) (fault.Point, int) {
	if kind == fault.Crash {
		// A crash can strike any instruction boundary.
		return agent.CrashPoint(r.rng, words, true)
	}
	// Write corruptions fire only on the write path; the relocation
	// performs exactly `words` copy writes and `words` plant writes.
	points := []fault.Point{fault.CopyWrite, fault.PlantWrite, fault.MemWrite}
	p := points[r.rng.Intn(len(points))]
	if p == fault.MemWrite {
		return p, 1 + r.rng.Intn(2*words)
	}
	return p, 1 + r.rng.Intn(words)
}

// misalignedDelta returns a nonzero delta such that a forwarding word
// holding target+delta still resolves to target at byte offset off:
// WordAlign(target+delta+off) == target requires delta in [-off, 7-off].
func (r *Relocator) misalignedDelta(off mem.Addr) int64 {
	for {
		d := int64(r.rng.Intn(8)) - int64(off) // [-off, 7-off]
		if d != 0 {
			return d
		}
	}
}

// probe builds a misaligned forwarding chain in the private arena and
// verifies its resolution at the offset it was built for — through the
// inner machine's full load path for acyclic chains, and through the
// accurate cycle detector for deliberately cyclic ones (which are then
// dissolved so the memory ends in a clean state).
func (r *Relocator) probe(cyclic bool) {
	off := mem.Addr(1 + r.rng.Intn(7))
	k := 1 + r.rng.Intn(3)
	base := r.arena.Take(uint64(k+1) * mem.WordSize)
	if base == 0 {
		return
	}
	words := make([]mem.Addr, k+1)
	for i := range words {
		words[i] = base + mem.Addr(i)*mem.WordSize
	}
	payload := r.rng.Uint64()
	r.Machine.UnforwardedWrite(words[k], payload, false)
	for i := k - 1; i >= 0; i-- {
		delta := r.misalignedDelta(off)
		r.Machine.UnforwardedWrite(words[i], uint64(int64(words[i+1])+delta), true)
	}
	fwd := r.Machine.Forwarder()
	if cyclic {
		delta := r.misalignedDelta(off)
		r.Machine.UnforwardedWrite(words[k], uint64(int64(words[0])+delta), true)
		if _, _, err := fwd.Resolve(words[0]+off, nil); err != core.ErrCycle {
			panic(fmt.Sprintf("oracle: cyclic probe at %#x+%d not detected: err=%v", words[0], off, err))
		}
		for _, w := range words {
			r.Machine.UnforwardedWrite(w, 0, false)
		}
		r.CyclicProbes++
		return
	}
	if got, want := r.Machine.Load8(words[0]+off), uint8(payload>>(8*uint(off))); got != want {
		panic(fmt.Sprintf("oracle: probe at %#x+%d read %#x, want %#x", words[0], off, got, want))
	}
	chain := fwd.ChainWords(words[0] + off)
	if len(chain) != k {
		panic(fmt.Sprintf("oracle: probe chain at %#x+%d enumerates %d words, want %d", words[0], off, len(chain), k))
	}
	for i := range chain {
		if chain[i] != words[i] {
			panic(fmt.Sprintf("oracle: probe chain at %#x+%d diverges at hop %d: %#x, want %#x",
				words[0], off, i+1, chain[i], words[i]))
		}
	}
	r.Probes++
}

// --- guest-operation interception -----------------------------------
//
// The chaos clock advances on the guest's data operations only; every
// other app.Machine method reaches the inner machine through the
// embedded app.Interceptor.

// Load intercepts a load: possibly act, then delegate.
func (r *Relocator) Load(a mem.Addr, size uint) uint64 {
	r.tick()
	return r.Machine.Load(a, size)
}

// Store intercepts a store: possibly act, then delegate.
func (r *Relocator) Store(a mem.Addr, v uint64, size uint) {
	r.tick()
	r.Machine.Store(a, v, size)
}

// SetTrap records the guest handler (so chaos actions can mask it) and
// delegates.
func (r *Relocator) SetTrap(h core.TrapHandler) {
	r.guestTrap = h
	r.Machine.SetTrap(h)
}

// Malloc intercepts an allocation: possibly act, delegate, and track
// the new block as a relocation candidate.
func (r *Relocator) Malloc(n uint64) mem.Addr {
	r.tick()
	a := r.Machine.Malloc(n)
	if n <= agent.MaxBlockBytes {
		r.victims.Add(a)
	}
	return a
}

// Free intercepts a deallocation: untrack, possibly act, delegate.
func (r *Relocator) Free(a mem.Addr) {
	r.victims.Remove(a)
	r.tick()
	r.Machine.Free(a)
}
