// Package agent is the core shared by the three agents that move guest
// blocks behind the program's back on a seeded clock of guest
// operations — the chaos adversary (oracle.Relocator), the
// relocator-hart scheduler (sched.Group) and the tiering daemon
// (tier.Daemon) — each of which keeps only its policy: what to move,
// and when. Nothing here owns a generator: every draw goes through the
// caller's Rand, in the caller's order, so decisions replay from a seed.
package agent

import (
	"fmt"

	"memfwd/internal/apps/app"
	"memfwd/internal/core"
	"memfwd/internal/fault"
	"memfwd/internal/mem"
	"memfwd/internal/opt"
)

const (
	// MaxEvery bounds a Clock's mean interval, so its 2*every draw range
	// cannot overflow. Callers check outside input against it.
	MaxEvery = 1 << 30

	// MaxBlockBytes caps the blocks chaos and the scheduler move.
	MaxBlockBytes = 1 << 19

	maxVictims = 1 << 14 // blocks one Victims set tracks

	// wordBudget bounds the words one Arena hands out, so apps whose
	// heaps are a few large tables (compress) get a handful of
	// whole-table moves rather than thousands.
	wordBudget = 1 << 19

	// Arena slots are arenaBytes each, behind arenaGuard gaps, from the
	// guard-aligned heap end up.
	arenaGuard = 0x10_0000
	arenaBytes = 1 << 28
)

// Rand is the one draw the core needs: *rand.Rand and the scheduler's
// splitmix64 generator both provide it.
type Rand interface{ Intn(n int) int }

// Clock counts guest operations down to an agent's next action. Each
// countdown is drawn from [1, 2*every], so actions come every `every`
// operations on average, with seeded jitter.
type Clock struct {
	Countdown int // operations left until the next action
	every     int
}

// NewClock returns a clock with mean interval every, in [1, MaxEvery],
// drawing its first countdown from rng.
func NewClock(every int, rng Rand) Clock {
	if every < 1 || every > MaxEvery {
		panic(fmt.Sprintf("agent: clock interval %d outside [1, %d]", every, MaxEvery))
	}
	c := Clock{every: every}
	c.reload(rng)
	return c
}

// Tick counts one guest operation and reports whether the countdown
// expired, drawing the next countdown when it did.
func (c *Clock) Tick(rng Rand) bool {
	c.Countdown--
	if c.Countdown > 0 {
		return false
	}
	c.reload(rng)
	return true
}

func (c *Clock) reload(rng Rand) { c.Countdown = 1 + rng.Intn(2*c.every) }

// Victims is the set of guest blocks an agent may relocate, fed from
// the guest's Malloc (arena and FragmentHeap blocks bypass it).
type Victims []mem.Addr

// Add tracks a, unless the set is full.
func (v *Victims) Add(a mem.Addr) {
	if len(*v) < maxVictims {
		*v = append(*v, a)
	}
}

// Remove untracks a; it is a no-op when a is not tracked.
func (v *Victims) Remove(a mem.Addr) {
	s := *v
	for i, b := range s {
		if b == a {
			s[i] = s[len(s)-1]
			*v = s[:len(s)-1]
			return
		}
	}
}

// Pick draws a random live block, 0 when none remain. Blocks freed
// behind the set's back are dropped as the draws find them.
func (v *Victims) Pick(rng Rand, al *mem.Allocator) mem.Addr {
	for s := *v; len(s) > 0; s = *v {
		i := rng.Intn(len(s))
		if al.Live(s[i]) {
			return s[i]
		}
		s[i] = s[len(s)-1]
		*v = s[:len(s)-1]
	}
	return 0
}

// Arena is an agent's private relocation-target space above the guest
// heap, so allocator behaviour — functional state — is never perturbed.
// Agents on one heap take distinct slots and never collide.
type Arena struct {
	Next, End mem.Addr
	Budget    int64 // words Target may still hand out
}

// NewArena returns slot slot above al's heap, with a full word budget.
func NewArena(al *mem.Allocator, slot int) Arena {
	_, heapEnd := al.Range()
	next := (heapEnd+arenaGuard-1)&^(arenaGuard-1) + arenaGuard + mem.Addr(slot)*(arenaBytes+arenaGuard)
	return Arena{Next: next, End: next + arenaBytes, Budget: wordBudget}
}

// Take bumps n word-rounded bytes off the arena (0 when exhausted)
// without charging the budget.
func (a *Arena) Take(n uint64) mem.Addr {
	n = (n + mem.WordSize - 1) &^ uint64(mem.WordSize-1)
	if a.Next+mem.Addr(n) > a.End {
		return 0
	}
	p := a.Next
	a.Next += mem.Addr(n)
	return p
}

// Target takes room for a copy of a size-byte block and charges its
// words to the budget; it returns 0, charging nothing, when either runs
// out, and the agent goes quiet.
func (a *Arena) Target(size uint64) mem.Addr {
	words := int64(size / mem.WordSize)
	if a.Budget < words {
		return 0
	}
	p := a.Take(size)
	if p != 0 {
		a.Budget -= words
	}
	return p
}

// crashPoints are opt.TryRelocate's step points, then its write regions.
var crashPoints = [...]fault.Point{
	fault.RelocateBegin, fault.RelocateCopied, fault.RelocateVerify,
	fault.RelocatePlant, fault.RelocateEnd, fault.CopyWrite, fault.PlantWrite,
}

// CrashPoint draws a crash point and visit sure to fire inside a
// words-long relocation; writes adds the write regions to the steps.
func CrashPoint(rng Rand, words int, writes bool) (fault.Point, int) {
	n := len(crashPoints)
	if !writes {
		n -= 2 // the step points only
	}
	p := crashPoints[rng.Intn(n)]
	switch p {
	case fault.RelocateCopied, fault.RelocatePlant, fault.CopyWrite, fault.PlantWrite:
		return p, 1 + rng.Intn(words)
	}
	return p, 1
}

// Relocate moves words words from src to tgt through the production
// two-phase commit, opt.Context.TryRelocate, in the caller's context
// c. A crash or torn move is rolled forward from c.Faults' journal and
// reported as repaired. With no injector, TryRelocate's error is
// returned (the heap is unchanged: copies are unreachable until
// planted); a failed roll-forward panics. The machine's injector slot
// is neither read nor written: each mover's injector travels in its
// own context.
func Relocate(m app.Machine, c opt.Context, src, tgt mem.Addr, words int) (repaired bool, err error) {
	err = func() (err error) {
		defer fault.RecoverCrash(&err)
		return c.TryRelocate(m, src, tgt, words)
	}()
	if err == nil || c.Faults == nil {
		return false, err
	}
	if _, serr := c.Faults.Repair(m.Memory(), m.Forwarder()); serr != nil {
		panic(fmt.Sprintf("agent: scavenge of %#x after %q (shots %v): %v", src, err, c.Faults.Shots, serr))
	}
	return true, nil
}

// CheckMoved checks a finished relocation's structure: every source
// word resolves to its copy, and no copy forwards. It reads through fwd
// only (untimed, no scheduling points) and holds under contention.
func CheckMoved(fwd *core.Forwarder, src, tgt mem.Addr, words int) error {
	for i := 0; i < words; i++ {
		s := src + mem.Addr(i*mem.WordSize)
		d := tgt + mem.Addr(i*mem.WordSize)
		final, _, err := fwd.Resolve(s, nil)
		if err != nil {
			return fmt.Errorf("agent: resolve of moved word %#x: %w", s, err)
		}
		if mem.WordAlign(final) != d {
			return fmt.Errorf("agent: moved word %#x resolves to %#x, want %#x", s, final, d)
		}
		if _, fb := fwd.UnforwardedRead(d); fb {
			return fmt.Errorf("agent: copy %#x of %#x forwards", d, s)
		}
	}
	return nil
}
