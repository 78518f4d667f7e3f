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

	"memfwd/internal/agent"
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
	// launches (0 takes 64; at most agent.MaxEvery). Jobs move blocks
	// of at most agent.MaxBlockBytes, within the arena's word budget.
	Interval int
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
	clock     agent.Clock
	guestHart int

	victims agent.Victims
	arena   agent.Arena // slot 1, above the chaos adversary's slot 0
	ctx     opt.Context // the relocation context of hart jobs

	faults    bool
	forced    *fault.Shot // InjectNext's pending plan
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
	g := &Group{
		cfg:   cfg,
		rng:   prng{state: uint64(cfg.Seed)},
		arena: agent.NewArena(inner.Allocator(), 1),
	}
	g.Interceptor = app.NewInterceptor(inner, g)
	if hs, ok := app.As[hartSwitcher](inner); ok {
		if hs.HartCount() < cfg.Harts {
			return nil, fmt.Errorf("sched: %d harts requested but the machine has %d", cfg.Harts, hs.HartCount())
		}
		g.hs = hs
	}
	g.clock = agent.NewClock(cfg.Interval, &g.rng)
	// Hart jobs record spans in the inner machine's table. They take no
	// barrier: the group drains its jobs, never the reverse.
	g.ctx = opt.NewContext(inner)
	g.ctx.Barrier = nil
	for i := 1; i < cfg.Harts; i++ {
		g.harts = append(g.harts, newHart(g, i))
	}
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

// InjectNext arms the next launch with exactly this fault plan (test
// hook for the exhaustive crash-point enumeration), whatever other jobs
// are in flight beside it: every job carries its own injector and
// journal. kind should be fault.Crash; visit counts above the job's
// word count simply never fire.
func (g *Group) InjectNext(kind fault.Kind, p fault.Point, visit int) {
	g.forced = &fault.Shot{Kind: kind, Point: p, Visit: visit}
}

// point runs at every intercepted guest operation: maybe launch a job,
// then grant a seeded burst of service steps to in-flight jobs.
func (g *Group) point() {
	if len(g.harts) == 0 || g.inService {
		return
	}
	g.inService = true
	defer func() { g.inService = false }()
	if g.clock.Tick(&g.rng) {
		g.launch()
	}
	for i := 0; i < maxGrantsPerPoint; i++ {
		h := g.pickBusy()
		if h == nil {
			return
		}
		if g.rng.Intn(3) == 0 {
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
	k := g.rng.Intn(n)
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
// eligible block are available. Jobs carry their own injector and
// journal in their relocation context, so they launch beside any
// other job, faulted or clean.
//
// Nothing launches while a machine-global injector is installed (RunOne
// and memfwd-sim -fault install one before the run). Its memory hook
// sees every write that reaches the tagged memory and its resolve hook
// every chain walk, so it would visit-count a job's writes and could
// crash or corrupt them where no journal of the job covers them. The
// machine's slot holds nothing else: no agent installs its injector
// there.
func (g *Group) launch() {
	if g.Machine.FaultInjector() != nil {
		return
	}
	var idle *hart
	nIdle := 0
	for _, h := range g.harts {
		if h.job == nil && !h.dead {
			nIdle++
		}
	}
	if nIdle == 0 {
		return
	}
	k := g.rng.Intn(nIdle)
	for _, h := range g.harts {
		if h.job == nil && !h.dead {
			if k == 0 {
				idle = h
				break
			}
			k--
		}
	}
	al := g.Machine.Allocator()
	base := g.victims.Pick(&g.rng, al)
	if base == 0 || g.busyOn(base) {
		return
	}
	size, ok := al.SizeOf(base)
	if !ok || size > agent.MaxBlockBytes {
		return
	}
	tgt := g.arena.Target(size)
	if tgt == 0 {
		return
	}
	words := int(size / mem.WordSize)
	jb := &job{src: base, tgt: tgt, words: words}
	switch {
	case g.forced != nil:
		jb.plan, g.forced = *g.forced, nil
		jb.inj = fault.New(int64(g.rng.next()>>1)).Arm(jb.plan.Kind, jb.plan.Point, jb.plan.Visit)
		g.stats.Faulted++
	case g.faults && g.rng.Intn(4) == 0:
		jb.plan.Kind = fault.Crash
		jb.plan.Point, jb.plan.Visit = agent.CrashPoint(&g.rng, words, false)
		jb.inj = fault.New(int64(g.rng.next()>>1)).Arm(jb.plan.Kind, jb.plan.Point, jb.plan.Visit)
		g.stats.Faulted++
	}
	idle.job = jb
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

// runJob executes one job inside a hart coroutine: agent.Relocate
// through the yield-instrumented machine view, in a context labelled
// with the hart and holding the job's injector, interleaved with the
// guest (only the code between two yields is atomic), then a
// structural post-check. The roll-forward of a crashed job runs on raw
// memory without yields — the stop-the-world recovery pass of
// DESIGN.md §8.
func (g *Group) runJob(h *hart) {
	jb := h.job
	ctx := g.ctx
	ctx.Hart, ctx.Faults, ctx.Private = h.id, jb.inj, jb.inj != nil
	repaired, err := agent.Relocate(&hartMachine{Machine: g.Machine, h: h}, ctx, jb.src, jb.tgt, jb.words)
	if err != nil {
		panic(fmt.Sprintf("sched: relocation of %#x (%d words): %v", jb.src, jb.words, err))
	}
	if jb.inj.Fired() {
		g.stats.Crashes++
	}
	if repaired {
		g.stats.Scavenges++
	}
	// The check is untimed and yield-free: racing mutator stores
	// legally change *values*, which the surrounding differential
	// harness checks end to end.
	if err := agent.CheckMoved(g.Machine.Forwarder(), jb.src, jb.tgt, jb.words); err != nil {
		panic(fmt.Sprintf("sched: post-job %v (job %#x->%#x %dw, fault %v fired=%v repaired=%v)",
			err, jb.src, jb.tgt, jb.words, jb.plan, jb.inj.Fired(), repaired))
	}
	g.stats.Relocations++
}

// RelocationBarrier is opt.TryRelocate's pre-flight hook: before any
// relocation by anyone *outside* the group's own harts (a layout pass
// run by the guest, the tiering daemon, the chaos adversary) touches
// the heap, an in-flight job on the same object is driven to
// completion — concurrent chain-append would let a plant land at a
// stale chain end and the scavenger treat a foreign plant as
// corruption. Jobs on other objects stay in flight: journals and
// injectors are per relocation, so nothing else is shared.
func (g *Group) RelocationBarrier(src mem.Addr) {
	if len(g.harts) == 0 || g.inService {
		return
	}
	g.inService = true
	defer func() { g.inService = false }()
	for _, h := range g.harts {
		if h.job != nil && !h.dead && g.sameObject(h.job.src, src) {
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
// SaveState on the underlying machine, or a final digest that should
// reflect only committed relocations.
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
