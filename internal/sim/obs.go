// Observability surface of the Machine: event tracing, phase marking,
// metrics registration, and the periodic time-series sampler. All of it
// is opt-in; a machine with nothing attached pays one nil check per
// operation and allocates nothing extra.
package sim

import (
	"memfwd/internal/mem"
	"memfwd/internal/obs"
)

// SetTracer attaches t to the machine and every subsystem that emits
// events (both cache levels and the pipeline). Passing nil detaches.
func (m *Machine) SetTracer(t *obs.Tracer) {
	m.tracer = t
	m.L1.SetTracer(t, 1)
	m.L2.SetTracer(t, 2)
	m.Pipe.SetTracer(t)
	if m.spans != nil {
		m.spans.Tracer = t
	}
}

// Tracer returns the attached tracer (nil when tracing is disabled).
func (m *Machine) Tracer() *obs.Tracer { return m.tracer }

// Now returns the current pipeline cycle — the timestamp base the span
// recorder stamps relocation phases with.
func (m *Machine) Now() int64 { return m.Pipe.Now() }

// SetHeatMap attaches a per-object heat map fed from the machine's
// Load/Store/trap paths plus the allocator's event hook. Object
// identity (OnAlloc/OnFree) comes from the allocator itself — not from
// Malloc/Free — so blocks minted or retired through the *untimed*
// allocator paths (arena carving, heap aging, tools) are tracked too;
// otherwise a base freed untimed and re-allocated would alias the dead
// object's decayed counters. Passing nil detaches; with no heat map
// attached the hot paths pay one nil check each.
func (m *Machine) SetHeatMap(h *obs.HeatMap) {
	m.heat = h
	if h == nil {
		m.Alloc.OnEvent = nil
		return
	}
	m.Alloc.OnEvent = func(op string, a mem.Addr, size uint64) {
		switch op {
		case "alloc":
			h.OnAlloc(uint64(a), size)
		case "free":
			h.OnFree(uint64(a))
		}
	}
}

// HeatMap returns the attached heat map (nil when disabled).
func (m *Machine) HeatMap() *obs.HeatMap { return m.heat }

// SetSpans attaches a relocation-span table; opt.TryRelocate records
// one span per relocation attempt into it. If a tracer is attached the
// table also emits span duration events to it (and SetTracer keeps the
// wiring current when called in either order). Passing nil detaches.
func (m *Machine) SetSpans(t *obs.SpanTable) {
	m.spans = t
	if t != nil {
		t.Tracer = m.tracer
	}
}

// RelocationSpans returns the attached span table (nil when disabled).
func (m *Machine) RelocationSpans() *obs.SpanTable { return m.spans }

// PhaseBegin marks the start of a named program phase: a PhaseBegin
// event is emitted and subsequent samples carry the label. Phases nest;
// it costs no simulated time.
func (m *Machine) PhaseBegin(name string) {
	if m.series != nil {
		m.takeSample() // close the previous phase's interval
	}
	m.phases = append(m.phases, name)
	if m.tracer != nil {
		m.tracer.Emit(obs.Event{Cycle: m.Pipe.Now(), Kind: obs.KPhaseBegin, Label: name})
	}
}

// PhaseEnd marks the end of the innermost phase.
func (m *Machine) PhaseEnd(name string) {
	if m.series != nil {
		m.takeSample()
	}
	if n := len(m.phases); n > 0 {
		m.phases = m.phases[:n-1]
	}
	if m.tracer != nil {
		m.tracer.Emit(obs.Event{Cycle: m.Pipe.Now(), Kind: obs.KPhaseEnd, Label: name})
	}
}

// Phase returns the innermost active phase label ("" outside phases).
func (m *Machine) Phase() string {
	if n := len(m.phases); n > 0 {
		return m.phases[n-1]
	}
	return ""
}

// TraceRelocate records one relocation in the event trace; the layout
// optimizations (internal/opt) call it after installing the forwarding
// address. It charges no simulated time — the relocation code itself
// already paid its instructions and stores.
func (m *Machine) TraceRelocate(src, tgt mem.Addr, nWords int) {
	if m.tracer != nil {
		m.tracer.Emit(obs.Event{Cycle: m.Pipe.Now(), Kind: obs.KRelocate,
			Addr: uint64(src), Addr2: uint64(tgt), N: uint64(nWords)})
	}
}

// RegisterMetrics exposes every subsystem's statistics in r as lazily
// evaluated views: the machine totals, both cache levels, the pipeline,
// the forwarder, and the allocator. The existing Stats structs stay the
// single source of truth; nothing on the hot path changes.
func (m *Machine) RegisterMetrics(r *obs.Registry) {
	m.Pipe.RegisterMetrics(r, "cpu")
	m.L1.RegisterMetrics(r, "l1")
	m.L2.RegisterMetrics(r, "l2")
	m.Fwd.RegisterMetrics(r, "fwd")
	r.GaugeFunc("sim.loads.forwarded", func() float64 { return float64(m.stats.LoadsForwarded()) })
	r.GaugeFunc("sim.stores.forwarded", func() float64 { return float64(m.stats.StoresForwarded()) })
	r.GaugeFunc("sim.load.cycles", func() float64 { return float64(m.stats.LoadCycles) })
	r.GaugeFunc("sim.load.fwd_cycles", func() float64 { return float64(m.stats.LoadFwdCycles) })
	r.GaugeFunc("sim.store.cycles", func() float64 { return float64(m.stats.StoreCycles) })
	r.GaugeFunc("sim.store.fwd_cycles", func() float64 { return float64(m.stats.StoreFwdCycles) })
	r.GaugeFunc("sim.traps", func() float64 { return float64(m.stats.Traps) })
	r.GaugeFunc("heap.live_bytes", func() float64 { return float64(m.Alloc.BytesLive) })
	r.GaugeFunc("heap.peak_bytes", func() float64 { return float64(m.Alloc.PeakLive) })
	r.GaugeFunc("heap.allocated_bytes", func() float64 { return float64(m.Alloc.BytesAllocated) })
	r.GaugeFunc("mem.pages_touched", func() float64 { return float64(m.Mem.PagesTouched()) })
}

// SetSampleEvery attaches series and samples the machine roughly every
// n graduated instructions (phase boundaries also force a sample).
// Finalize flushes the last partial interval. Passing n == 0 or a nil
// series detaches the sampler.
func (m *Machine) SetSampleEvery(n uint64, series *obs.Series) {
	if n == 0 || series == nil {
		m.series = nil
		return
	}
	m.series = series
	m.sampleEvery = n
	if series.Every == 0 {
		series.Every = n
	}
	m.samplePrev = *m.Snapshot()
	m.sampleNext = m.samplePrev.Instructions + n
}

// maybeSample is the per-operation sampler check; kept tiny so the
// disabled path is one comparison. Sampling tracks hart 0 (the guest
// mutator): service-hart instruction counts are independent clocks and
// must not be compared against hart 0's next-sample threshold.
func (m *Machine) maybeSample() {
	if m.series != nil && m.curHart == 0 && m.Pipe.Stats.Instructions >= m.sampleNext {
		m.takeSample()
	}
}

// takeSample appends one point derived from the delta between the
// current snapshot and the previous one.
func (m *Machine) takeSample() {
	cur := m.Snapshot()
	if cur.Instructions == m.samplePrev.Instructions {
		// Zero-width interval (e.g. back-to-back phase marks): nothing
		// to report.
		m.sampleNext = cur.Instructions + m.sampleEvery
		return
	}
	m.series.Add(sampleDelta(&m.samplePrev, cur, m.Phase(), m.Alloc.BytesLive))
	m.samplePrev = *cur
	m.sampleNext = cur.Instructions + m.sampleEvery
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// demand returns (misses, accesses) for loads+stores at one level.
func demand(prev, cur *Stats, level int) (uint64, uint64) {
	pick := func(s *Stats) (m, a uint64) {
		cs := &s.L1
		if level == 2 {
			cs = &s.L2
		}
		for _, k := range []int{0, 1} { // load, store
			m += cs.PartialMisses[k] + cs.FullMisses[k]
			a += cs.Hits[k] + cs.PartialMisses[k] + cs.FullMisses[k]
		}
		return m, a
	}
	pm, pa := pick(prev)
	cm, ca := pick(cur)
	return cm - pm, ca - pa
}

// sampleDelta turns two consecutive cumulative snapshots into one
// interval sample.
func sampleDelta(prev, cur *Stats, phase string, heapLive uint64) obs.Sample {
	s := obs.Sample{
		Phase:         phase,
		Instructions:  cur.Instructions,
		Cycles:        cur.Cycles,
		DInstructions: cur.Instructions - prev.Instructions,
		DCycles:       cur.Cycles - prev.Cycles,
		HeapLiveBytes: heapLive,
	}
	var slots [4]uint64
	var total uint64
	for i := range slots {
		slots[i] = cur.Slots[i] - prev.Slots[i]
		total += slots[i]
	}
	if total > 0 {
		s.BusyShare = float64(slots[0]) / float64(total)
		s.LoadStallShare = float64(slots[1]) / float64(total)
		s.StoreStallShare = float64(slots[2]) / float64(total)
		s.InstStallShare = float64(slots[3]) / float64(total)
	}
	m1, a1 := demand(prev, cur, 1)
	m2, a2 := demand(prev, cur, 2)
	s.L1MissRate = ratio(m1, a1)
	s.L2MissRate = ratio(m2, a2)
	s.FwdLoadRate = ratio(cur.LoadsForwarded()-prev.LoadsForwarded(), cur.Loads-prev.Loads)
	s.FwdStoreRate = ratio(cur.StoresForwarded()-prev.StoresForwarded(), cur.Stores-prev.Stores)
	return s
}
