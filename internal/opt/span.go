// Relocation-span instrumentation for TryRelocate: when the
// relocation's Context carries an obs.SpanTable, every attempt is
// recorded as a structured span over the two-phase commit with
// per-phase cycle costs, chain length before/after, outcome, the hart
// that ran it, and any fault-injector shots that fired inside the
// span. With no table the cost is one nil check and zero allocations.
package opt

import (
	"memfwd/internal/core"
	"memfwd/internal/fault"
	"memfwd/internal/mem"
	"memfwd/internal/obs"
)

// relocSpan accumulates one in-flight TryRelocate span. One with no
// table records nothing, so the instrumentation sites in Move stay
// unconditional.
type relocSpan struct {
	st    *obs.SpanTable
	clock interface{ Now() int64 }
	inj   *fault.Injector
	base  int // len(inj.Shots) when the span opened

	span                   obs.RelocationSpan
	tCopy, tVerify, tPlant int64 // completion stamps; -1 = not reached
}

// begin opens a span if (and only if) c carries a span table. The
// chain-length probe uses hook-free direct reads, so it perturbs
// neither timing nor fault-injector visit counts.
func (r *relocSpan) begin(c *Context, fwd *core.Forwarder, src, tgt mem.Addr, nWords int) {
	if c.Spans == nil {
		return
	}
	*r = relocSpan{st: c.Spans, clock: c.Clock, inj: c.Faults, tCopy: -1, tVerify: -1, tPlant: -1}
	if c.Faults != nil {
		r.base = len(c.Faults.Shots)
	}
	r.span = obs.RelocationSpan{
		Src:         uint64(src),
		Tgt:         uint64(tgt),
		Words:       nWords,
		Hart:        c.Hart,
		ChainBefore: chainLen(fwd, src),
		ChainAfter:  -1,
		Begin:       c.Clock.Now(),
	}
}

// stamp sets t, one of r's completion stamps, to now.
func (r *relocSpan) stamp(t *int64) {
	if r.st != nil {
		*t = r.clock.Now()
	}
}

// finish stamps the outcome and records the span. Phase durations are
// derived from the completion stamps: a phase that never completed
// reports -1 (its partial cost folds into TotalCycles). Crash-fault
// panics unwind past finish entirely — a crashed relocation records no
// span, mirroring a real process death.
func (r *relocSpan) finish(fwd *core.Forwarder, src mem.Addr, outcome obs.RelocOutcome, err error) {
	if r.st == nil {
		return
	}
	s := &r.span
	s.TotalCycles = r.clock.Now() - s.Begin
	s.CopyCycles, s.VerifyCycles, s.PlantCycles = -1, -1, -1
	last := s.Begin
	if r.tCopy >= 0 {
		s.CopyCycles = r.tCopy - last
		last = r.tCopy
	}
	if r.tVerify >= 0 {
		s.VerifyCycles = r.tVerify - last
		last = r.tVerify
	}
	if r.tPlant >= 0 {
		s.PlantCycles = r.tPlant - last
	}
	s.Outcome = outcome
	if outcome == obs.RelocCommitted {
		s.ChainAfter = chainLen(fwd, src)
	}
	if err != nil {
		s.Err = err.Error()
	}
	if r.inj != nil {
		for _, sh := range r.inj.Shots[r.base:] {
			s.Faults = append(s.Faults, sh.String())
		}
	}
	r.st.Record(*s)
}

// chainLen measures the forwarding chain length of the word at a using
// the direct (hook-free, untimed) forwarder reads; bounded by ChainCap
// so a cyclic chain cannot hang the probe.
func chainLen(fwd *core.Forwarder, a mem.Addr) int {
	n := 0
	w := mem.WordAlign(a)
	for fwd.ReadFBit(w) {
		v, _ := fwd.UnforwardedRead(w)
		w = mem.WordAlign(mem.Addr(v))
		n++
		if n > fwd.ChainCap {
			break
		}
	}
	return n
}
