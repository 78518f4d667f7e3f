package sched

import (
	"fmt"

	"memfwd/internal/mem"
)

// Guest-operation interception. Scheduling points (point) fire at the
// guest's *data* operations — loads, stores, malloc, free — the same
// sites every agent's clock counts; every other app.Machine
// method reaches the inner machine through the embedded
// app.Interceptor. The ISA-extension primitives (ReadFBit,
// UnforwardedRead/Write, FinalAddr) and Inst deliberately take no
// scheduling point: they are what guest-initiated relocation passes
// (opt.ListLinearize and friends) are made of, so a guest relocation
// runs with no job launches between its own word accesses — the
// RelocationBarrier at its head is then sufficient to keep the group's
// jobs off its source block for the whole two-phase commit.

// Load takes a scheduling point and delegates.
func (g *Group) Load(a mem.Addr, size uint) uint64 {
	g.point()
	return g.Machine.Load(a, size)
}

// Store takes a scheduling point and delegates.
func (g *Group) Store(a mem.Addr, v uint64, size uint) {
	g.point()
	g.Machine.Store(a, v, size)
}

// Malloc takes a scheduling point, delegates, and tracks the new block
// as relocation-eligible.
func (g *Group) Malloc(n uint64) mem.Addr {
	g.point()
	a := g.Machine.Malloc(n)
	// A fresh block overlapping an in-flight job's source means the
	// liveness discipline broke somewhere (the allocator zeroes reused
	// space, wiping the job's half-planted forwarding words): fail at
	// the cause, not at the eventual digest mismatch.
	for _, h := range g.harts {
		if h.job != nil && h.job.src >= a && h.job.src < a+mem.Addr(n) {
			panic(fmt.Sprintf("sched: malloc %#x+%#x overlaps in-flight relocation of %#x", a, n, h.job.src))
		}
	}
	g.victims.Add(a)
	return a
}

// Free takes its scheduling point first, then drains any in-flight job
// relocating the same logical object — a relocation must not outlive
// its object's liveness, and the machine's Free releases every block on
// the forwarding chain (the Section 3.3 deallocation wrapper), so the
// match must be by object identity, not raw address: the guest may free
// through a relocated alias of the job's source base. The order is
// load-bearing: the scheduling point may itself launch a job on this
// object (it is still live until the delegation below), so draining
// must come after the last point at which a job can appear and before
// the allocator revokes the blocks — otherwise a later Malloc could
// reuse the range and zero the job's half-planted forwarding words.
// (The tracking list drops the block lazily via the allocator's
// liveness check.)
func (g *Group) Free(a mem.Addr) {
	g.point()
	if !g.inService {
		for _, h := range g.harts {
			if h.job != nil && g.sameObject(h.job.src, a) {
				g.drain(h)
			}
		}
	}
	g.Machine.Free(a)
}
