// Package cpu models the out-of-order superscalar processor the paper
// evaluates on (Section 4): a W-wide dispatch/graduation pipeline with a
// reorder buffer, a store buffer, and data-dependence speculation
// (Section 3.2).
//
// The model is trace-driven and analytic: instructions are processed in
// program order; each is assigned a dispatch time (bounded by dispatch
// bandwidth and ROB occupancy) and a completion time (loads complete
// when the cache hierarchy delivers their data — including any
// forwarding hops, which the machine layer chains as dependent
// accesses). Graduation is in-order at W per cycle, and every
// non-graduating slot is attributed to the oldest instruction exactly as
// Figure 5's legend defines: load stall, store stall, or inst stall.
//
// Memory forwarding delays a store's *final* address until the store
// completes. The pipeline therefore speculates that every reference's
// final address equals its initial address; a violation (overlapping
// final ranges but disjoint initial ranges between a load and an
// in-flight earlier store) costs a re-execution penalty, mirroring the
// data-dependence speculation discussion in Section 3.2.
package cpu

import (
	"math"

	"memfwd/internal/obs"
)

// StallClass attributes non-graduating slots per Figure 5.
type StallClass uint8

const (
	Busy StallClass = iota
	LoadStall
	StoreStall
	InstStall
	nClasses
)

func (c StallClass) String() string {
	switch c {
	case Busy:
		return "busy"
	case LoadStall:
		return "load stall"
	case StoreStall:
		return "store stall"
	default:
		return "inst stall"
	}
}

// Range is a byte range [Lo, Hi) touched by a memory reference.
type Range struct {
	Lo, Hi uint64
}

// Overlaps reports whether two ranges intersect.
func (r Range) Overlaps(o Range) bool { return r.Lo < o.Hi && o.Lo < r.Hi }

// Config sizes the pipeline.
type Config struct {
	Width       int   // dispatch and graduation width
	ROB         int   // reorder-buffer entries
	StoreBuffer int   // outstanding post-graduation store drains
	DepPenalty  int64 // cycles to re-execute after a violated dependence
}

// DefaultConfig matches the class of machine the paper simulates.
func DefaultConfig() Config {
	return Config{Width: 4, ROB: 64, StoreBuffer: 16, DepPenalty: 16}
}

// Stats accumulates graduation-slot and speculation accounting.
type Stats struct {
	Cycles       int64
	Slots        [nClasses]uint64 // busy + the three stall classes
	Instructions uint64
	Loads        uint64
	Stores       uint64

	DepViolations uint64
	DepBypasses   uint64 // store-to-load forwards from the store buffer
}

// TotalSlots returns width × cycles after Finalize.
func (s *Stats) TotalSlots() uint64 {
	var t uint64
	for _, v := range s.Slots {
		t += v
	}
	return t
}

type inflightStore struct {
	init, final Range
	gradTime    int64
}

// Pipeline is the processor model. Create with New; feed instructions in
// program order via Inst, Load, Store, and Prefetch; then call Finalize.
type Pipeline struct {
	cfg Config

	// Dispatch stream.
	dispCycle int64
	dispUsed  int

	// Graduation stream.
	gradCycle int64
	gradUsed  int

	// Ring of graduation times of the last ROB instructions.
	robGrad []int64
	robPos  int
	robSeen uint64

	// Store buffer: completion times of outstanding drains.
	sb      []int64
	sbHead  int
	sbCount int

	// In-flight stores for dependence speculation.
	stores []inflightStore

	finalized bool

	trace *obs.Tracer

	Stats Stats
}

// New returns a pipeline with the given configuration; zero fields fall
// back to DefaultConfig values.
func New(cfg Config) *Pipeline {
	d := DefaultConfig()
	if cfg.Width <= 0 {
		cfg.Width = d.Width
	}
	if cfg.ROB <= 0 {
		cfg.ROB = d.ROB
	}
	if cfg.StoreBuffer <= 0 {
		cfg.StoreBuffer = d.StoreBuffer
	}
	if cfg.DepPenalty <= 0 {
		cfg.DepPenalty = d.DepPenalty
	}
	return &Pipeline{
		cfg:     cfg,
		robGrad: make([]int64, cfg.ROB),
		sb:      make([]int64, cfg.StoreBuffer),
	}
}

// Config returns the effective configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// SetTracer attaches t (nil detaches); the pipeline emits
// data-dependence speculation violations.
func (p *Pipeline) SetTracer(t *obs.Tracer) { p.trace = t }

// RegisterMetrics exposes the pipeline statistics as registry views
// under the given prefix (e.g. "cpu").
func (p *Pipeline) RegisterMetrics(r *obs.Registry, prefix string) {
	r.GaugeFunc(prefix+".cycles", func() float64 { return float64(p.Stats.Cycles) })
	r.GaugeFunc(prefix+".instructions", func() float64 { return float64(p.Stats.Instructions) })
	r.GaugeFunc(prefix+".loads", func() float64 { return float64(p.Stats.Loads) })
	r.GaugeFunc(prefix+".stores", func() float64 { return float64(p.Stats.Stores) })
	for cls, name := range map[StallClass]string{
		Busy: "busy", LoadStall: "load_stall", StoreStall: "store_stall", InstStall: "inst_stall",
	} {
		cls := cls
		r.GaugeFunc(prefix+".slots."+name, func() float64 { return float64(p.Stats.Slots[cls]) })
	}
	r.GaugeFunc(prefix+".dep.violations", func() float64 { return float64(p.Stats.DepViolations) })
	r.GaugeFunc(prefix+".dep.bypasses", func() float64 { return float64(p.Stats.DepBypasses) })
}

// take places the next instruction of a width-w stage (dispatch or
// graduation) whose last instruction took slot used of cycle at, no
// earlier than cycle floor. It returns the instruction's cycle, the
// slots that cycle has used, and the slots left empty waiting for
// floor: the rest of the current cycle and every cycle in between.
// Whether an instruction waits is data the host cannot predict, so the
// wait is computed without a branch.
func take(w int, at int64, used int, floor int64) (int64, int, uint64) {
	if used == w {
		at++
		used = 0
	}
	to := max(at, floor)
	gap := to - at
	empty := uint64(w-used) + uint64(gap-1)*uint64(w)
	if gap == 0 {
		empty = 0
	}
	if gap != 0 {
		used = 0
	}
	return to, used + 1, empty
}

// robFloor is the earliest cycle the next instruction may dispatch at
// for want of a ROB entry: the graduation cycle of the instruction ROB
// entries back, once there is one.
func robFloor(rob []int64, pos int, seen uint64) int64 {
	floor := rob[pos]
	if seen < uint64(len(rob)) {
		floor = math.MinInt64
	}
	return floor
}

// dispatch assigns the next instruction's dispatch cycle, honouring
// dispatch bandwidth and ROB occupancy. It is take with the ROB floor,
// written out so that it inlines into Load, Store and Prefetch.
func (p *Pipeline) dispatch() int64 {
	if p.dispUsed == p.cfg.Width {
		p.dispCycle++
		p.dispUsed = 0
	}
	// The instruction ROB entries older cannot be reused until the
	// instruction ROB-entries back has graduated.
	if p.robSeen >= uint64(p.cfg.ROB) {
		if lb := p.robGrad[p.robPos]; lb > p.dispCycle {
			p.dispCycle = lb
			p.dispUsed = 0
		}
	}
	p.dispUsed++
	return p.dispCycle
}

// graduate retires the instruction that becomes ready at cycle ready,
// charging any non-graduating slots to class, and records its
// graduation time in the ROB ring. Returns the graduation cycle.
func (p *Pipeline) graduate(ready int64, class StallClass) int64 {
	var empty uint64
	p.gradCycle, p.gradUsed, empty = take(p.cfg.Width, p.gradCycle, p.gradUsed, ready)
	p.Stats.Slots[class] += empty
	p.Stats.Slots[Busy]++

	p.robGrad[p.robPos] = p.gradCycle
	p.robPos++
	if p.robPos == p.cfg.ROB {
		p.robPos = 0
	}
	p.robSeen++
	return p.gradCycle
}

// Mix is the policy a run of plain (non-memory) instructions follows:
// every MispredictEvery-th is a mispredicted branch that executes in
// MispredictLat cycles and then stalls the front end for
// MispredictBubble cycles, every DepEvery-th carries a dependence-chain
// latency of DepLat cycles, and the rest take one cycle. A mispredict
// takes precedence when both periods land on one instruction (both
// counters still reload). Latencies below one cycle count as one, and a
// bubble below one cycle is none.
type Mix struct {
	MispredictEvery  uint32
	MispredictLat    int64
	MispredictBubble int64
	DepEvery         uint32
	DepLat           int64
}

// Inst feeds n plain instructions under mix. misp and dep count down to
// the next mispredict and dependence event; a counter that reaches zero
// marks its event and reloads to its period, so a live pair stays in
// [1, MispredictEvery] and [1, DepEvery]. Inst returns both counters
// after the n instructions. Each instruction is dispatched and
// graduated as by dispatch and graduate, with the cursors held in
// locals for the whole mix.
func (p *Pipeline) Inst(n int, mix *Mix, misp, dep uint32) (uint32, uint32) {
	if n <= 0 {
		return misp, dep
	}
	w := p.cfg.Width
	rob := p.robGrad
	mispLat := max(mix.MispredictLat, 1)
	depLat := max(mix.DepLat, 1)
	bubble := mix.MispredictBubble

	dispCycle, dispUsed := p.dispCycle, p.dispUsed
	gradCycle, gradUsed := p.gradCycle, p.gradUsed
	robPos, robSeen := p.robPos, p.robSeen
	var stall uint64
	for k := 0; k < n; k++ {
		misp--
		dep--
		lat := int64(1)
		mispredict := false
		switch {
		case misp == 0:
			misp = mix.MispredictEvery
			if dep == 0 {
				dep = mix.DepEvery
			}
			lat = mispLat
			mispredict = true
		case dep == 0:
			dep = mix.DepEvery
			lat = depLat
		}

		var empty uint64
		dispCycle, dispUsed, _ = take(w, dispCycle, dispUsed, robFloor(rob, robPos, robSeen))
		gradCycle, gradUsed, empty = take(w, gradCycle, gradUsed, dispCycle+lat)
		stall += empty
		rob[robPos] = gradCycle
		robPos++
		if robPos == len(rob) {
			robPos = 0
		}
		robSeen++

		if mispredict && bubble > 0 {
			dispCycle += bubble
			dispUsed = 0
		}
	}
	p.dispCycle, p.dispUsed = dispCycle, dispUsed
	p.gradCycle, p.gradUsed = gradCycle, gradUsed
	p.robPos, p.robSeen = robPos, robSeen
	p.Stats.Instructions += uint64(n)
	p.Stats.Slots[Busy] += uint64(n)
	p.Stats.Slots[InstStall] += stall
	return misp, dep
}

// LoadInfo reports the timing of one load for latency statistics.
type LoadInfo struct {
	Issue    int64
	Ready    int64
	Violated bool
	Bypassed bool
}

// Load feeds one load. init and final are the byte ranges of the
// reference's initial and final addresses (they differ only when the
// reference was forwarded). minIssue delays issue until the load's
// address operand is available — the machine layer computes it from
// pointer provenance, which is what serializes pointer-chasing chains
// (Section 2.2's motivation for linearization). access performs the
// timed cache walk — forwarding hops are chained inside it — given the
// issue cycle, returning the data-ready cycle.
func (p *Pipeline) Load(init, final Range, minIssue int64, access func(issue int64) int64) LoadInfo {
	d := p.dispatch()
	p.Stats.Instructions++
	p.Stats.Loads++
	p.pruneStores(d)
	if minIssue > d {
		d = minIssue
	}

	info := LoadInfo{Issue: d}
	bypass := false
	violated := false
	for i := range p.stores {
		st := &p.stores[i]
		if st.gradTime <= d {
			continue
		}
		switch {
		case st.init.Overlaps(init):
			// The hardware sees matching initial addresses and forwards
			// from the store buffer: no speculation needed.
			bypass = true
		case st.final.Overlaps(final):
			// Initial addresses differed, final addresses collide: the
			// speculation that final==initial was wrong.
			violated = true
		}
	}
	ready := access(d)
	if bypass {
		// Store-to-load forwarding satisfies the load quickly, but the
		// cache walk above still happened architecturally (the line is
		// warmed); the data itself arrives from the buffer.
		if fast := d + 1; fast < ready {
			ready = fast
		}
		p.Stats.DepBypasses++
		info.Bypassed = true
	}
	if violated {
		ready += p.cfg.DepPenalty
		p.Stats.DepViolations++
		info.Violated = true
		if p.trace != nil {
			p.trace.Emit(obs.Event{Cycle: d, Kind: obs.KDepViolation,
				Addr: init.Lo, Addr2: final.Lo})
		}
	}
	p.graduate(ready, LoadStall)
	info.Ready = ready
	return info
}

// Store feeds one store. drain performs the timed cache write given the
// cycle the store leaves the store buffer; it runs after graduation.
// Returns the cycle the drain completes.
func (p *Pipeline) Store(init, final Range, drain func(start int64) int64) int64 {
	d := p.dispatch()
	p.Stats.Instructions++
	p.Stats.Stores++
	p.pruneStores(d)

	ready := d + 1 // data enters the store queue
	// The store cannot graduate while the store buffer is full; only
	// that backpressure (store misses draining slowly) is charged as
	// the paper's "store stall" — the one-cycle completion itself is
	// ordinary pipelining.
	class := InstStall
	if p.sbCount == p.cfg.StoreBuffer {
		oldest := p.sb[p.sbHead]
		if oldest > ready {
			ready = oldest
			class = StoreStall
		}
		p.sbHead++
		if p.sbHead == p.cfg.StoreBuffer {
			p.sbHead = 0
		}
		p.sbCount--
	}
	g := p.graduate(ready, class)
	done := drain(g)
	slot := p.sbHead + p.sbCount
	if slot >= p.cfg.StoreBuffer {
		slot -= p.cfg.StoreBuffer
	}
	p.sb[slot] = done
	p.sbCount++

	p.stores = append(p.stores, inflightStore{init: init, final: final, gradTime: g})
	return done
}

// Prefetch feeds one prefetch instruction; issue runs once the address
// operand is available (minIssue, from pointer provenance) and performs
// the non-blocking fills. Prefetches never stall graduation.
func (p *Pipeline) Prefetch(minIssue int64, issue func(at int64)) {
	d := p.dispatch()
	p.Stats.Instructions++
	at := d
	if minIssue > at {
		at = minIssue
	}
	issue(at)
	p.graduate(d+1, InstStall)
}

// pruneStores drops dependence-tracking entries that have graduated by
// cycle t. Entries are appended in graduation-time order, so the prefix
// is removable.
func (p *Pipeline) pruneStores(t int64) {
	i := 0
	for i < len(p.stores) && p.stores[i].gradTime <= t {
		i++
	}
	if i > 0 {
		p.stores = p.stores[:copy(p.stores, p.stores[i:])]
	}
}

// Now returns the current graduation cycle (monotone during a run).
func (p *Pipeline) Now() int64 { return p.gradCycle }

// DispatchFloor returns a monotone lower bound on the dispatch cycle of
// every future instruction: dispatch times only move forward, so any
// operand-ready constraint (Load/Prefetch minIssue) at or below this
// value can never delay anything again. The machine layer uses this to
// evict dead pointer-provenance entries without perturbing timing.
func (p *Pipeline) DispatchFloor() int64 { return p.dispCycle }

// Finalize closes the run: the last partially used graduation cycle is
// padded into inst stall so busy+stalls exactly partitions width×cycles.
func (p *Pipeline) Finalize() {
	if p.finalized {
		return
	}
	p.finalized = true
	if p.gradUsed > 0 {
		p.Stats.Slots[InstStall] += uint64(p.cfg.Width - p.gradUsed)
		p.gradCycle++
		p.gradUsed = 0
	}
	p.Stats.Cycles = p.gradCycle
}
