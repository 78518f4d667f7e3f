package sched

import (
	"errors"
	"fmt"

	"memfwd/internal/apps/app"
	"memfwd/internal/fault"
	"memfwd/internal/mem"
)

// errQuit unwinds a hart coroutine during Close; it is never stored as
// a propagated panic.
var errQuit = errors.New("sched: hart quit")

// job is one relocation assigned to a service hart: the production
// two-phase commit of jb.src into jb.tgt, optionally with a private
// fault injector armed. The injector, and the journal it carries, go
// into the job's relocation context only; the machine's injector slot
// never sees them.
type job struct {
	src, tgt mem.Addr
	words    int
	inj      *fault.Injector
	plan     fault.Shot // the armed fault, for failure reports
}

// hart is one relocator hart: a coroutine that runs relocation jobs
// against the shared machine, suspended at every word access so the
// scheduler interleaves it with the guest at word-access granularity.
//
// The coroutine is a goroutine in a strict ping-pong handshake with the
// scheduler (resume/yielded are unbuffered): exactly one side runs at
// any instant, every hand-off is a channel operation, and all shared
// state is touched only by the running side — sequential semantics,
// deterministic under the race detector.
type hart struct {
	g  *Group
	id int // hart id on the machine (1..P-1; hart 0 is the guest)

	job *job

	resume  chan struct{}
	yielded chan struct{}
	quit    bool
	dead    bool // coroutine exited (yielded channel closed)

	panicVal any
}

func newHart(g *Group, id int) *hart {
	h := &hart{
		g:       g,
		id:      id,
		resume:  make(chan struct{}),
		yielded: make(chan struct{}),
	}
	go h.run()
	return h
}

// run is the coroutine body: park until resumed, run any assigned job
// to completion (yielding at each word access), repeat.
func (h *hart) run() {
	defer func() {
		if r := recover(); r != nil && r != errQuit { //nolint:errorlint // sentinel identity
			h.panicVal = r
		}
		close(h.yielded)
	}()
	h.await()
	for {
		for h.job == nil {
			h.yield()
		}
		h.g.runJob(h)
		h.job = nil
	}
}

// yield suspends the coroutine and hands control back to the scheduler.
func (h *hart) yield() {
	h.yielded <- struct{}{}
	h.await()
}

// await parks until the scheduler grants the next step.
func (h *hart) await() {
	<-h.resume
	if h.quit {
		panic(errQuit)
	}
}

// step grants the coroutine one step: it runs until its next yield.
// A coroutine that exits (quit, or a propagated failure) closes its
// yielded channel; the failure re-panics here, on the scheduler side.
func (h *hart) step() {
	if h.dead {
		return
	}
	h.resume <- struct{}{}
	if _, ok := <-h.yielded; !ok {
		h.dead = true
		if h.panicVal != nil {
			p := h.panicVal
			h.panicVal = nil
			panic(fmt.Sprintf("sched: hart %d: %v", h.id, p))
		}
	}
}

// hartMachine is the machine view a relocation job executes against: it
// delegates everything to the scheduler's inner machine and yields the
// coroutine *after* each word access. Yield-after is load-bearing: the
// plant step in opt.TryRelocate refreshes the copy with functional
// reads (no yield) immediately before the plant write, so
// refresh+plant execute atomically within one granted step — a mutator
// store can never slip between them.
//
// The embedded interface is the group's *inner* machine, so a job's
// word accesses take no scheduling points. What else the job runs with
// — its injector, the span table and its hart label, no barrier —
// comes from the job's relocation context, not from the machine, so
// nothing needs to look past this view.
type hartMachine struct {
	app.Machine
	h *hart
}

func (hm *hartMachine) ReadFBit(a mem.Addr) bool {
	v := hm.Machine.ReadFBit(a)
	hm.h.yield()
	return v
}

func (hm *hartMachine) UnforwardedRead(a mem.Addr) (uint64, bool) {
	v, fb := hm.Machine.UnforwardedRead(a)
	hm.h.yield()
	return v, fb
}

func (hm *hartMachine) UnforwardedWrite(a mem.Addr, v uint64, fbit bool) {
	hm.Machine.UnforwardedWrite(a, v, fbit)
	hm.h.yield()
}
