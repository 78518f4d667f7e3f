// Package sched is the deterministic seeded multi-hart scheduler: it
// runs relocations *concurrently* with the guest program, interleaved
// at word-access granularity, and makes every interleaving enumerable
// and replayable from a seed.
//
// A Group wraps an app.Machine through app.Interceptor, hooking only
// the guest's data operations, and owns P-1 relocator harts, each a
// coroutine driving the production two-phase commit (opt.TryRelocate)
// against the shared tagged memory. At every intercepted guest
// operation the Group may launch a new relocation job and grants a
// seeded number of single-word steps to in-flight jobs; each step runs
// one word access of a relocation, bracketed by sim.SetHart so its
// timing lands on the relocator hart's private pipeline and caches.
// The guest's loads and stores therefore genuinely race the copy and
// plant phases, with the forwarding word as the read barrier — the
// paper's central safety claim, exercised for real.
//
// Determinism: every decision comes from a splitmix64 generator
// advanced only by the guest's operation sequence and the (functional)
// progress of jobs. Two machines driven through identical guest
// operations under equal-seeded Groups make identical decisions — the
// differential harness runs the timing simulator and the functional
// oracle under the *same* schedule and demands identical results.
//
// Allowed behaviours (DESIGN.md §12): a Group must never make a guest
// operation return a value that differs from some serial execution of
// the same operations without relocation, and DigestModuloForwarding
// must be invariant across seeds, hart counts, and crash points.
package sched

import (
	"fmt"

	"memfwd/internal/apps/app"
	"memfwd/internal/core"
	"memfwd/internal/fault"
	"memfwd/internal/mem"
	"memfwd/internal/opt"
)

// Config parameterizes a Group.
type Config struct {
	// Harts is the total hart count including the guest mutator
	// (hart 0). Must be >= 1; a 1-hart group schedules nothing and is
	// a transparent wrapper.
	Harts int

	// Seed drives every scheduling decision. Equal seeds over equal
	// guest operation sequences replay identical interleavings.
	Seed int64

	// Interval is the mean number of guest operations between job
	// launches (0 takes 64, the chaos Relocator's default cadence).
	Interval int

	// MaxBlockBytes caps the size of blocks eligible for relocation
	// jobs; WordBudget bounds the total words relocated over the
	// group's lifetime (defaults match the chaos Relocator).
	MaxBlockBytes uint64
	WordBudget    int64
}

// Stats is the group's accounting.
type Stats struct {
	Relocations int   // jobs committed (including scavenged-forward)
	Faulted     int   // jobs run with a private injector armed
	Crashes     int   // armed crashes that fired
	Scavenges   int   // torn jobs rolled forward from their journal
	Steps       int64 // single-word service steps granted
	Drains      int   // jobs force-completed by the relocation barrier
}

// hartSwitcher is the optional per-hart timing capability, found by
// app.As down the inner chain: sim.Machine, or the serve proxy, which
// forwards to whichever machine live migration last swapped in. Absent
// — the functional oracle — service steps still run, just without
// per-hart timing attribution.
type hartSwitcher interface {
	SetHart(i int)
	HartCount() int
}

// maxGrantsPerPoint bounds service steps granted at one guest
// operation; together with the 1-in-3 stop draw it yields about two
// steps per point when jobs are in flight.
const maxGrantsPerPoint = 4

// Group implements app.Machine, scheduling concurrent relocations
// around the guest operations it forwards. Not safe for concurrent use
// by multiple goroutines — like the machine it wraps, it belongs to
// one guest.
type Group struct {
	app.Interceptor
	hs  hartSwitcher // nil when the inner chain has no per-hart timing
	cfg Config
	rng prng

	harts     []*hart
	countdown int
	guestHart int

	blocks     []mem.Addr
	maxBlocks  int
	wordBudget int64

	arenaNext, arenaEnd mem.Addr

	faults    bool
	forced    *job // InjectNext's pending plan
	inService bool
	closed    bool

	stats Stats
}

var _ app.Machine = (*Group)(nil)

// New wraps inner in a scheduling group. An error (never a panic) is
// returned for a non-positive hart count or one exceeding the inner
// machine's harts — the CLI/HTTP layers surface it as a clean input
// error.
func New(inner app.Machine, cfg Config) (*Group, error) {
	if cfg.Harts < 1 {
		return nil, fmt.Errorf("sched: harts must be at least 1 (got %d)", cfg.Harts)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 64
	}
	if cfg.MaxBlockBytes == 0 {
		cfg.MaxBlockBytes = 1 << 19
	}
	if cfg.WordBudget == 0 {
		cfg.WordBudget = 1 << 19
	}
	g := &Group{
		cfg:        cfg,
		rng:        prng{state: uint64(cfg.Seed)},
		maxBlocks:  1 << 14,
		wordBudget: cfg.WordBudget,
	}
	g.Interceptor = app.NewInterceptor(inner, g)
	if hs, ok := app.As[hartSwitcher](inner); ok {
		if hs.HartCount() < cfg.Harts {
			return nil, fmt.Errorf("sched: %d harts requested but the machine has %d", cfg.Harts, hs.HartCount())
		}
		g.hs = hs
	}
	// Private relocation arena, above the guest heap AND above the
	// chaos Relocator's region (both size from the same heap end), so
	// the two adversaries can stack without colliding.
	_, heapEnd := inner.Allocator().Range()
	base := (heapEnd+0xF_FFFF)&^0xF_FFFF + 0x10_0000 + (1 << 28) + 0x10_0000
	g.arenaNext = base
	g.arenaEnd = base + (1 << 28)
	for i := 1; i < cfg.Harts; i++ {
		g.harts = append(g.harts, newHart(g, i))
	}
	g.reload()
	return g, nil
}

// Stats returns the group's accounting so far.
func (g *Group) Stats() Stats { return g.stats }

// EnableFaults adds crash injection to the repertoire: roughly a
// quarter of subsequent jobs run with a private injector arming a
// crash at a seeded boundary point of the relocation. Crash is the
// only kind injected concurrently — corruption kinds verify against
// values a racing mutator may legally change, so they stay with the
// (atomic) chaos Relocator.
func (g *Group) EnableFaults() { g.faults = true }

// InjectNext arms the next *solo* launch — a faulted job is exclusive
// with other jobs (see launch), so the plan waits until a job launches
// with no other job in flight — with exactly this fault plan (test
// hook for the exhaustive crash-point enumeration). kind should be
// fault.Crash; visit counts above the job's word count simply never
// fire.
func (g *Group) InjectNext(kind fault.Kind, p fault.Point, visit int) {
	g.forced = &job{kind: kind, point: p, visit: visit}
}

// reload draws the next launch countdown.
func (g *Group) reload() { g.countdown = 1 + g.rng.intn(2*g.cfg.Interval) }

// point runs at every intercepted guest operation: maybe launch a job,
// then grant a seeded burst of service steps to in-flight jobs.
func (g *Group) point() {
	if len(g.harts) == 0 || g.inService {
		return
	}
	g.inService = true
	defer func() { g.inService = false }()
	g.countdown--
	if g.countdown <= 0 {
		g.reload()
		g.launch()
	}
	for i := 0; i < maxGrantsPerPoint; i++ {
		h := g.pickBusy()
		if h == nil {
			return
		}
		if g.rng.intn(3) == 0 {
			return
		}
		g.svcStep(h)
	}
}

// svcStep grants one coroutine step as the hart's identity: the step's
// timing lands on that hart's pipeline and caches, and the machine is
// restored to the guest hart afterwards (also on a propagated panic,
// so failure reports read coherent state).
func (g *Group) svcStep(h *hart) {
	if g.hs != nil {
		g.hs.SetHart(h.id)
		defer g.hs.SetHart(g.guestHart)
	}
	g.stats.Steps++
	h.step()
}

// pickBusy draws a random hart with a job in flight (nil when idle).
func (g *Group) pickBusy() *hart {
	n := 0
	for _, h := range g.harts {
		if h.job != nil && !h.dead {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	k := g.rng.intn(n)
	for _, h := range g.harts {
		if h.job != nil && !h.dead {
			if k == 0 {
				return h
			}
			k--
		}
	}
	return nil
}

// launch assigns a relocation job to an idle hart, if a hart and an
// eligible block are available. No launch happens while a foreign
// injector is installed on the machine: job writes would pollute its
// visit counting and journal (see SetFaultInjector).
//
// A faulted job is additionally exclusive with every other group job,
// in both directions. The machine has one injector slot and one
// journal, and a job binds to them by reading FaultInjector() at its
// *first step* — not at launch — so any overlap cross-wires them: a
// clean job that starts while a faulted job's injector is installed
// would journal into the faulted job's journal (and the scavenger
// would then replay the wrong relocation), and a faulted job that
// installs its injector while a clean job is waiting for its first
// step poisons that job the same way. Hence: nothing launches while a
// faulted job is in flight, and a fault arms only when no other job
// is in flight. Faulted jobs still race the guest's loads and stores
// — exclusivity is only between relocator harts.
func (g *Group) launch() {
	if g.Machine.FaultInjector() != nil {
		return
	}
	var idle *hart
	nIdle, inFlight := 0, 0
	for _, h := range g.harts {
		if h.dead {
			continue
		}
		if h.job == nil {
			nIdle++
		} else {
			inFlight++
			if h.job.inj != nil {
				return
			}
		}
	}
	if nIdle == 0 {
		return
	}
	k := g.rng.intn(nIdle)
	for _, h := range g.harts {
		if h.job == nil && !h.dead {
			if k == 0 {
				idle = h
				break
			}
			k--
		}
	}
	base := g.pickBlock()
	if base == 0 || g.busyOn(base) {
		return
	}
	size, ok := g.Machine.Allocator().SizeOf(base)
	if !ok || size > g.cfg.MaxBlockBytes {
		return
	}
	words := int(size / mem.WordSize)
	if words == 0 || g.wordBudget < int64(words) {
		return
	}
	tgt := g.arenaTake(size)
	if tgt == 0 {
		return
	}
	g.wordBudget -= int64(words)

	jb := &job{src: base, tgt: tgt, words: words}
	switch {
	case inFlight > 0:
		// Not alone: launch clean (see the exclusivity rule above). A
		// forced injection stays armed for the next solo launch.
	case g.forced != nil:
		jb.kind, jb.point, jb.visit = g.forced.kind, g.forced.point, g.forced.visit
		jb.inj = fault.New(int64(g.rng.next()>>1)).Arm(jb.kind, jb.point, jb.visit)
		g.forced = nil
		g.stats.Faulted++
	case g.faults && g.rng.intn(4) == 0:
		jb.kind = fault.Crash
		jb.point, jb.visit = g.armCrash(words)
		jb.inj = fault.New(int64(g.rng.next()>>1)).Arm(jb.kind, jb.point, jb.visit)
		g.stats.Faulted++
	}
	idle.job = jb
}

// armCrash draws a crash point and a visit count within a words-long
// relocation's boundary steps.
func (g *Group) armCrash(words int) (fault.Point, int) {
	points := []fault.Point{
		fault.RelocateBegin, fault.RelocateCopied, fault.RelocateVerify,
		fault.RelocatePlant, fault.RelocateEnd,
	}
	p := points[g.rng.intn(len(points))]
	switch p {
	case fault.RelocateCopied, fault.RelocatePlant:
		return p, 1 + g.rng.intn(words)
	default:
		return p, 1
	}
}

// pickBlock draws a live tracked block (0 when none), lazily dropping
// dead ones — the same policy as the chaos Relocator.
func (g *Group) pickBlock() mem.Addr {
	al := g.Machine.Allocator()
	for len(g.blocks) > 0 {
		i := g.rng.intn(len(g.blocks))
		base := g.blocks[i]
		if !al.Live(base) {
			g.blocks[i] = g.blocks[len(g.blocks)-1]
			g.blocks = g.blocks[:len(g.blocks)-1]
			continue
		}
		return base
	}
	return 0
}

// busyOn reports whether some in-flight job is relocating base.
func (g *Group) busyOn(base mem.Addr) bool {
	for _, h := range g.harts {
		if h.job != nil && h.job.src == base {
			return true
		}
	}
	return false
}

// arenaTake bumps n word-rounded bytes off the private arena (0 when
// exhausted; the group then goes quiet, like the chaos arena).
func (g *Group) arenaTake(n uint64) mem.Addr {
	n = (n + mem.WordSize - 1) &^ uint64(mem.WordSize-1)
	if g.arenaNext+mem.Addr(n) > g.arenaEnd {
		return 0
	}
	a := g.arenaNext
	g.arenaNext += mem.Addr(n)
	return a
}

// runJob executes one job inside a hart coroutine: the production
// two-phase commit through the yield-instrumented machine view, crash
// recovery and journal roll-forward on failure, and a structural
// post-check. It runs interleaved with the guest; only the code
// between two yields is atomic.
func (g *Group) runJob(h *hart) {
	jb := h.job
	hm := &hartMachine{Machine: g.Machine, h: h}

	prev := g.Machine.FaultInjector()
	inj := prev
	if jb.inj != nil {
		// A faulted job owns the machine's injector slot (and with it
		// the journal) for its whole interleaved duration; the
		// RelocationBarrier drains it before anyone else journals.
		g.Machine.SetFaultInjector(jb.inj)
		inj = jb.inj
	}
	err := func() (err error) {
		defer fault.RecoverCrash(&err)
		return opt.TryRelocate(hm, jb.src, jb.tgt, jb.words)
	}()
	if jb.inj != nil {
		g.Machine.SetFaultInjector(prev)
		if jb.inj.Fired() {
			g.stats.Crashes++
		}
	}
	if err != nil {
		// Crash or torn detection: roll the relocation forward from its
		// journal. Scavenge runs on raw memory with the injector
		// suspended and executes here without yields, so the repair is
		// atomic with respect to the guest — exactly the stop-the-world
		// recovery pass DESIGN.md §8 describes.
		if inj == nil {
			panic(fmt.Sprintf("sched: relocation of %#x (%d words): %v", jb.src, jb.words, err))
		}
		if _, serr := fault.Scavenge(g.Machine.Memory(), g.Machine.Forwarder(), &inj.Journal, inj); serr != nil {
			panic(fmt.Sprintf("sched: scavenge of %#x after %q: %v", jb.src, err, serr))
		}
		g.stats.Scavenges++
	}

	// Structural verification, valid under contention (racing mutator
	// stores legally change *values*, which the surrounding
	// differential harness checks end to end): every source word must
	// resolve to its copy, and no copy may itself forward.
	fwd := g.Machine.Forwarder()
	for i := 0; i < jb.words; i++ {
		s := jb.src + mem.Addr(i*mem.WordSize)
		d := jb.tgt + mem.Addr(i*mem.WordSize)
		final, _, rerr := fwd.Resolve(s, nil)
		if rerr != nil {
			panic(fmt.Sprintf("sched: post-job resolve of %#x: %v", s, rerr))
		}
		if mem.WordAlign(final) != d {
			panic(fmt.Sprintf("sched: post-job %#x resolves to %#x, want %#x (job %#x->%#x %dw, fault %v@%v:%d fired=%v err=%v)",
				s, final, d, jb.src, jb.tgt, jb.words, jb.kind, jb.point, jb.visit, jb.inj.Fired(), err))
		}
		if _, fb := fwd.UnforwardedRead(d); fb {
			panic(fmt.Sprintf("sched: post-job copy %#x forwards", d))
		}
	}
	g.stats.Relocations++
}

// RelocationBarrier is opt.TryRelocate's pre-flight hook: before any
// relocation by anyone *outside* the group's own harts (a layout pass
// run by the guest, the tiering daemon, the chaos adversary) touches
// shared relocation state, conflicting in-flight jobs are driven to
// completion. Two conflicts exist: a job on the same source block
// (concurrent chain-append would let a plant land at a stale chain end
// and the scavenger treat a foreign plant as corruption), and — when
// any injector is in play — any faulted job (journals and the
// machine's injector slot are exclusive).
func (g *Group) RelocationBarrier(src mem.Addr) {
	if len(g.harts) == 0 || g.inService {
		return
	}
	g.inService = true
	defer func() { g.inService = false }()
	for _, h := range g.harts {
		if h.job == nil || h.dead {
			continue
		}
		if g.sameObject(h.job.src, src) || h.job.inj != nil || g.Machine.FaultInjector() != nil {
			g.drain(h)
		}
	}
}

// finalOf resolves a's forwarding chain to its final word without
// going through the Forwarder — crucially, without touching its
// FaultHook, so a barrier or free check never consumes an armed
// injector's visit counts or perturbs crash timing. Reports false on a
// chain longer than any the group can legally build (a cycle, or
// memory mid-corruption); callers treat that conservatively.
func (g *Group) finalOf(a mem.Addr) (mem.Addr, bool) {
	mm := g.Machine.Memory()
	wa := mem.WordAlign(a)
	for hops := 0; mm.FBit(wa); hops++ {
		if hops > 4*core.DefaultHopLimit {
			return 0, false
		}
		wa = mem.WordAlign(mem.Addr(mm.ReadWord(wa)))
	}
	return wa, true
}

// sameObject reports whether two pointers name the same logical object
// — their forwarding chains converge on the same final word. A guest
// that has already relocated a block holds the *new* address, so a
// conflict check comparing raw source addresses misses the alias: the
// group's job (keyed by the original base) and the guest's re-
// relocation (keyed by the previous target) then race their plants on
// the very same chain-end words. Distinct objects can never share a
// chain word — every relocation target starts unreachable — so final-
// word equality is exactly object identity. Unresolvable chains count
// as conflicting, which at worst drains a job early.
func (g *Group) sameObject(a, b mem.Addr) bool {
	fa, oka := g.finalOf(a)
	fb, okb := g.finalOf(b)
	if !oka || !okb {
		return true
	}
	return fa == fb
}

// drain drives one hart's in-flight job to completion.
func (g *Group) drain(h *hart) {
	g.stats.Drains++
	for h.job != nil && !h.dead {
		g.svcStep(h)
	}
}

// Quiesce drives every in-flight job to completion, leaving the group
// idle and the heap free of half-planted relocations. Required before
// Cursor, SaveState on the underlying machine, or a final digest that
// should reflect only committed relocations.
func (g *Group) Quiesce() {
	if g.inService {
		return
	}
	g.inService = true
	defer func() { g.inService = false }()
	for _, h := range g.harts {
		for h.job != nil && !h.dead {
			g.svcStep(h)
		}
	}
}

// Close terminates the hart coroutines. In-flight jobs are abandoned
// mid-relocation (call Quiesce first if the machine is used again);
// Close is terminal and idempotent.
func (g *Group) Close() {
	if g.closed {
		return
	}
	g.closed = true
	for _, h := range g.harts {
		h.quit = true
		h.step()
	}
}

// SetGuestHart moves the guest mutator onto hart i (the fuzzer's
// hart-switch opcode): subsequent guest operations charge hart i's
// timing state. Purely a timing identity — functional behaviour is
// unchanged, so oracle-backed groups accept it as a no-op draw.
// Sharing an id with a busy relocator hart is allowed; both then
// accumulate onto the same pipeline.
func (g *Group) SetGuestHart(i int) {
	if i < 0 || i >= g.cfg.Harts {
		panic(fmt.Sprintf("sched: SetGuestHart(%d) out of range (harts=%d)", i, g.cfg.Harts))
	}
	g.guestHart = i
	if g.hs != nil {
		g.hs.SetHart(i)
	}
}
