package oracle

import (
	"fmt"
	"math/rand"

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
//   - chain-head re-relocation: the original word is repointed at a
//     fresh copy, orphaning the old one (what opt.Relocate does);
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

	// Countdown in guest operations until the next chaos action.
	countdown int
	interval  int

	// Tracked guest blocks eligible for relocation (Malloc-intercepted,
	// size-capped; arena and FragmentHeap blocks bypass Malloc and are
	// deliberately not tracked). wordBudget bounds the episode's total
	// relocated words so apps whose heaps are a few large tables (e.g.
	// compress) get a handful of whole-table relocations rather than
	// thousands.
	blocks     []mem.Addr
	maxBytes   uint64
	maxBlocks  int
	wordBudget int64

	// Private target arena, strictly outside the guest heap.
	arenaNext, arenaEnd mem.Addr

	guestTrap core.TrapHandler
	inChaos   bool

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
// actions (0 takes a default of 64).
func NewRelocator(inner app.Machine, seed int64, interval int) *Relocator {
	if interval <= 0 {
		interval = 64
	}
	_, heapEnd := inner.Allocator().Range()
	arena := (heapEnd + 0xF_FFFF) &^ 0xF_FFFF // 1MB-aligned guard gap
	r := &Relocator{
		rng:        rand.New(rand.NewSource(seed)),
		interval:   interval,
		maxBytes:   1 << 19,
		maxBlocks:  1 << 14,
		wordBudget: 1 << 19,
		arenaNext:  arena + 0x10_0000,
		arenaEnd:   arena + 0x10_0000 + (1 << 28),
	}
	r.Interceptor = app.NewInterceptor(inner, r)
	r.reload()
	return r
}

func (r *Relocator) reload() { r.countdown = 1 + r.rng.Intn(2*r.interval) }

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

// arenaTake bumps n bytes (word-rounded) off the private arena,
// returning 0 when exhausted (the adversary then simply goes quiet).
func (r *Relocator) arenaTake(n uint64) mem.Addr {
	n = (n + mem.WordSize - 1) &^ uint64(mem.WordSize-1)
	if r.arenaNext+mem.Addr(n) > r.arenaEnd {
		return 0
	}
	a := r.arenaNext
	r.arenaNext += mem.Addr(n)
	return a
}

// tick runs before every intercepted guest operation and fires a chaos
// action when the countdown expires. Actions run with the guest's trap
// handler masked: the adversary models an agent outside the program,
// and its own probe references must not invoke guest trap code.
func (r *Relocator) tick() {
	if r.inChaos {
		return
	}
	r.countdown--
	if r.countdown > 0 {
		return
	}
	r.reload()
	r.inChaos = true
	r.Machine.SetTrap(nil)
	defer func() {
		r.Machine.SetTrap(r.guestTrap)
		r.inChaos = false
	}()
	switch n := r.rng.Intn(12); {
	case n < 7:
		r.relocateRandom()
	case n < 9:
		r.probe(false)
	case n < 10:
		r.probe(true)
	default:
		if r.faults {
			r.faultedRelocate()
		} else {
			r.relocateRandom()
		}
	}
}

// relocateRandom relocates one randomly chosen tracked block.
func (r *Relocator) relocateRandom() {
	if base := r.pickBlock(); base != 0 {
		r.relocateBlock(base)
	}
}

// pickBlock draws a random live tracked block (0 when none remain),
// lazily dropping blocks freed outside our Free interception.
func (r *Relocator) pickBlock() mem.Addr {
	al := r.Machine.Allocator()
	for len(r.blocks) > 0 {
		i := r.rng.Intn(len(r.blocks))
		base := r.blocks[i]
		if !al.Live(base) {
			r.blocks[i] = r.blocks[len(r.blocks)-1]
			r.blocks = r.blocks[:len(r.blocks)-1]
			continue
		}
		return base
	}
	return 0
}

// relocateBlock moves the block at base to a fresh arena copy, word by
// word, appending the new forwarding word at the *end* of any existing
// chain — the Figure 4(a) rule, and the only legal form: the program
// (or an opt pass acting for it) may hold direct pointers to the
// current final copy, so the data must move from there and leave a
// forwarding word behind there. (An earlier version of this adversary
// also re-pointed the chain head directly at the new copy; the
// differential harness immediately caught that as a heap divergence —
// guest stores through direct pool pointers no longer reached the copy
// being read back — which is itself a nice demonstration that the
// harness rejects *illegal* relocations, not just buggy machinery.)
// Re-relocating an already-moved block therefore lengthens its chain,
// driving chains past HopLimit and into the false-alarm cycle check.
func (r *Relocator) relocateBlock(base mem.Addr) {
	size, ok := r.Machine.Allocator().SizeOf(base)
	if !ok {
		return
	}
	if r.wordBudget < int64(size/mem.WordSize) {
		return
	}
	r.wordBudget -= int64(size / mem.WordSize)
	tgt := r.arenaTake(size)
	if tgt == 0 {
		return
	}
	// Untimed peek before the move: a first word that already forwards
	// means this relocation lengthens an existing chain.
	if r.Machine.Memory().FBit(base) {
		r.Lengthenings++
	}
	// The move itself is the production two-phase commit — the adversary
	// exercises exactly the code path the opt passes use, including its
	// bounded chain-append walk.
	if err := opt.TryRelocate(r.Machine, base, tgt, int(size/mem.WordSize)); err != nil {
		panic(fmt.Sprintf("oracle: chaos relocation of %#x (%d words): %v", base, size/mem.WordSize, err))
	}
	r.Relocations++
}

// faultedRelocate relocates a random tracked block with a freshly
// seeded fault injector armed so the fault is guaranteed to fire
// inside the relocation: a crash at a random instruction boundary, a
// bit flip on a copy or plant write, or a spurious fbit transition.
// Any induced crash is recovered, the torn relocation is repaired from
// its journal (fault.Scavenge), and the repair is verified word by
// word: every source word must resolve to its new copy holding its
// pre-relocation value. The guest observes none of it — the
// surrounding differential episode then proves results and heap digest
// unchanged.
func (r *Relocator) faultedRelocate() {
	base := r.pickBlock()
	if base == 0 {
		return
	}
	size, ok := r.Machine.Allocator().SizeOf(base)
	if !ok {
		return
	}
	words := int(size / mem.WordSize)
	if words == 0 || r.wordBudget < int64(words) {
		return
	}
	r.wordBudget -= int64(words)
	tgt := r.arenaTake(size)
	if tgt == 0 {
		return
	}

	// Record pre-relocation values (through any existing chains) to
	// verify the repair against.
	fwd := r.Machine.Forwarder()
	want := make([]uint64, words)
	for i := range want {
		final, _, err := fwd.Resolve(base+mem.Addr(i*mem.WordSize), nil)
		if err != nil {
			panic(fmt.Sprintf("oracle: faulted relocation of %#x: %v", base, err))
		}
		want[i], _ = r.Machine.UnforwardedRead(mem.WordAlign(final))
	}

	inj := fault.New(r.rng.Int63())
	kind := r.faultKinds[r.rng.Intn(len(r.faultKinds))]
	point, visit := r.armPoint(kind, words)
	inj.Arm(kind, point, visit)
	prev := r.Machine.FaultInjector()
	r.Machine.SetFaultInjector(inj)
	err := func() (err error) {
		defer fault.RecoverCrash(&err)
		return opt.TryRelocate(r.Machine, base, tgt, words)
	}()
	r.Machine.SetFaultInjector(prev)
	if inj.Fired() {
		r.FaultsInjected++
	}
	if err != nil {
		if _, serr := fault.Scavenge(r.Machine.Memory(), fwd, &inj.Journal, inj); serr != nil {
			panic(fmt.Sprintf("oracle: scavenge of %#x after %q (%s@%s:%d): %v",
				base, err, kind, point, visit, serr))
		}
		r.FaultsRepaired++
	}

	// Completed or rolled forward, the outcome must be identical: each
	// word lives at its copy with its old value.
	for i := range want {
		s := base + mem.Addr(i*mem.WordSize)
		d := tgt + mem.Addr(i*mem.WordSize)
		final, _, rerr := fwd.Resolve(s, nil)
		if rerr != nil {
			panic(fmt.Sprintf("oracle: post-repair resolve of %#x (%s@%s:%d): %v", s, kind, point, visit, rerr))
		}
		if mem.WordAlign(final) != d {
			panic(fmt.Sprintf("oracle: post-repair %#x resolves to %#x, want %#x (%s@%s:%d)",
				s, final, d, kind, point, visit))
		}
		if v, fb := r.Machine.UnforwardedRead(d); fb || v != want[i] {
			panic(fmt.Sprintf("oracle: post-repair word %d of %#x = %#x (fbit=%v), want %#x (%s@%s:%d)",
				i, base, v, fb, want[i], kind, point, visit))
		}
	}
	r.Relocations++
}

// armPoint draws a fault point and a visit count that guarantees the
// armed plan fires during a words-long relocation.
func (r *Relocator) armPoint(kind fault.Kind, words int) (fault.Point, int) {
	if kind == fault.Crash {
		// A crash can strike any instruction boundary.
		points := []fault.Point{
			fault.RelocateBegin, fault.RelocateCopied, fault.RelocateVerify,
			fault.RelocatePlant, fault.RelocateEnd, fault.CopyWrite, fault.PlantWrite,
		}
		p := points[r.rng.Intn(len(points))]
		switch p {
		case fault.RelocateCopied, fault.RelocatePlant, fault.CopyWrite, fault.PlantWrite:
			return p, 1 + r.rng.Intn(words)
		default:
			return p, 1
		}
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
	base := r.arenaTake(uint64(k+1) * mem.WordSize)
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
	if n <= r.maxBytes && len(r.blocks) < r.maxBlocks {
		r.blocks = append(r.blocks, a)
	}
	return a
}

// Free intercepts a deallocation: untrack, possibly act, delegate.
func (r *Relocator) Free(a mem.Addr) {
	for i, b := range r.blocks {
		if b == a {
			r.blocks[i] = r.blocks[len(r.blocks)-1]
			r.blocks = r.blocks[:len(r.blocks)-1]
			break
		}
	}
	r.tick()
	r.Machine.Free(a)
}
