package obs

import (
	"fmt"

	"memfwd/internal/report"
)

// RelocOutcome is how one relocation span ended.
type RelocOutcome string

// Relocation span outcomes.
const (
	// RelocCommitted: both phases completed and the journal committed.
	RelocCommitted RelocOutcome = "committed"
	// RelocAborted: the relocation returned before touching reachable
	// memory (chain cap, confirmed cycle) — the heap is untouched.
	RelocAborted RelocOutcome = "aborted"
	// RelocTorn: a verification read-back caught corruption; the heap
	// is repairable from the relocation journal (fault.Scavenge).
	RelocTorn RelocOutcome = "torn"
)

// Span phase labels, shared with the Perfetto duration events.
const (
	SpanRelocate = "relocate"
	SpanCopy     = "relocate.copy"
	SpanVerify   = "relocate.verify"
	SpanPlant    = "relocate.plant"
)

// RelocationSpan is one structured record of a TryRelocate two-phase
// commit: begin -> copy -> verify -> plant -> end, with per-phase cycle
// costs, the chain length before and after, the outcome, and any fault
// injector shots that fired inside the span.
type RelocationSpan struct {
	ID    uint64 `json:"id"`
	Src   uint64 `json:"src"`
	Tgt   uint64 `json:"tgt"`
	Words int    `json:"words"`

	// Hart is the hart that ran the relocation: 0 for the guest's own
	// (and every agent running on the guest's hart), i for relocator
	// hart i of a scheduling group.
	Hart int `json:"hart,omitempty"`

	// Chain length of the source's first word before the relocation,
	// and after it committed (-1 when the span did not commit).
	ChainBefore int `json:"chainBefore"`
	ChainAfter  int `json:"chainAfter"`

	// Begin is the cycle at which the relocation started; the phase
	// costs are durations in cycles, -1 for a phase never reached. On
	// the timing-free oracle machine every stamp is 0, so spans still
	// record structure and outcome, just with zero-width phases.
	Begin        int64 `json:"begin"`
	CopyCycles   int64 `json:"copyCycles"`
	VerifyCycles int64 `json:"verifyCycles"`
	PlantCycles  int64 `json:"plantCycles"`
	TotalCycles  int64 `json:"totalCycles"`

	Outcome RelocOutcome `json:"outcome"`
	// Faults lists the fault.Injector shots that fired inside the span
	// (annotations), and Err carries the abort/torn reason.
	Faults []string `json:"faults,omitempty"`
	Err    string   `json:"err,omitempty"`
}

// PhaseSummary is the per-phase cost digest of a SpanTable.
type PhaseSummary struct {
	Phase string  `json:"phase"`
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	Max   float64 `json:"max"`
}

// SpanSnapshot is an immutable reading of a SpanTable, safe to hand to
// another goroutine (the HTTP telemetry plane publishes these).
type SpanSnapshot struct {
	Total     uint64           `json:"total"`
	Committed uint64           `json:"committed"`
	Aborted   uint64           `json:"aborted"`
	Torn      uint64           `json:"torn"`
	Phases    []PhaseSummary   `json:"phases"`
	Recent    []RelocationSpan `json:"recent"`
}

// spanBounds are the phase-cost histogram buckets in cycles
// (exponential: relocations range from a few words to whole subtrees).
var spanBounds = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}

// SpanTable records relocation spans into a bounded ring and aggregates
// per-phase cost histograms. A nil *SpanTable is a valid no-op
// receiver, mirroring the Tracer discipline: opt.TryRelocate records
// unconditionally after a cheap nil check, and the disabled path
// allocates nothing.
//
// Like the Machine it instruments, a SpanTable is not safe for
// concurrent use; concurrent readers get Snapshot copies.
type SpanTable struct {
	// Tracer, when non-nil, additionally receives each span as nested
	// KSpanBegin/KSpanEnd duration events (rendered by the Perfetto
	// sink as proper duration slices). Machine.SetSpans wires this to
	// the machine's tracer automatically.
	Tracer *Tracer

	spans   []RelocationSpan
	n       int
	wrapped bool

	nextID uint64
	outcomeTally
	byHart []outcomeTally // indexed by RelocationSpan.Hart

	hCopy, hVerify, hPlant, hTotal *Histogram
}

// outcomeTally counts spans by outcome.
type outcomeTally struct{ committed, aborted, torn uint64 }

func (o *outcomeTally) add(r RelocOutcome) {
	switch r {
	case RelocCommitted:
		o.committed++
	case RelocTorn:
		o.torn++
	default:
		o.aborted++
	}
}

// DefaultSpanCap is the ring capacity when none is given.
const DefaultSpanCap = 1024

// NewSpanTable builds a span table retaining the most recent capacity
// spans (capacity <= 0 takes DefaultSpanCap). Aggregates (counts,
// outcome tallies, phase histograms) cover every span ever recorded,
// not just the retained window.
func NewSpanTable(capacity int) *SpanTable {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &SpanTable{
		spans:   make([]RelocationSpan, capacity),
		hCopy:   NewHistogram(spanBounds...),
		hVerify: NewHistogram(spanBounds...),
		hPlant:  NewHistogram(spanBounds...),
		hTotal:  NewHistogram(spanBounds...),
	}
}

// Record stores one completed span (nil-safe). The span's ID field is
// assigned here; phase costs of -1 (phase never reached) are excluded
// from the histograms.
func (t *SpanTable) Record(s RelocationSpan) uint64 {
	if t == nil {
		return 0
	}
	t.nextID++
	s.ID = t.nextID
	t.add(s.Outcome)
	for len(t.byHart) <= s.Hart {
		t.byHart = append(t.byHart, outcomeTally{})
	}
	t.byHart[s.Hart].add(s.Outcome)
	if s.CopyCycles >= 0 {
		t.hCopy.Observe(float64(s.CopyCycles))
	}
	if s.VerifyCycles >= 0 {
		t.hVerify.Observe(float64(s.VerifyCycles))
	}
	if s.PlantCycles >= 0 {
		t.hPlant.Observe(float64(s.PlantCycles))
	}
	t.hTotal.Observe(float64(s.TotalCycles))

	t.spans[t.n] = s
	t.n++
	if t.n == len(t.spans) {
		t.n = 0
		t.wrapped = true
	}
	t.emit(s)
	return s.ID
}

// emit renders the span as nested duration events on the attached
// tracer: an outer "relocate" slice enclosing one slice per phase.
func (t *SpanTable) emit(s RelocationSpan) {
	tr := t.Tracer
	if tr == nil {
		return
	}
	tr.Emit(Event{Cycle: s.Begin, Kind: KSpanBegin, Label: SpanRelocate,
		Addr: s.Src, Addr2: s.Tgt, N: uint64(s.Words)})
	at := s.Begin
	for _, ph := range [...]struct {
		label string
		dur   int64
	}{{SpanCopy, s.CopyCycles}, {SpanVerify, s.VerifyCycles}, {SpanPlant, s.PlantCycles}} {
		if ph.dur < 0 {
			continue
		}
		tr.Emit(Event{Cycle: at, Kind: KSpanBegin, Label: ph.label})
		at += ph.dur
		tr.Emit(Event{Cycle: at, Kind: KSpanEnd, Label: ph.label})
	}
	tr.Emit(Event{Cycle: s.Begin + s.TotalCycles, Kind: KSpanEnd, Label: SpanRelocate})
}

// Count returns the number of spans ever recorded.
func (t *SpanTable) Count() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID
}

// Outcomes returns the committed / aborted / torn tallies.
func (t *SpanTable) Outcomes() (committed, aborted, torn uint64) {
	if t == nil {
		return 0, 0, 0
	}
	return t.committed, t.aborted, t.torn
}

// Spans returns the retained spans in recording order (the most recent
// window once the ring has wrapped).
func (t *SpanTable) Spans() []RelocationSpan {
	if t == nil {
		return nil
	}
	if t.wrapped {
		out := make([]RelocationSpan, 0, len(t.spans))
		out = append(out, t.spans[t.n:]...)
		return append(out, t.spans[:t.n]...)
	}
	out := make([]RelocationSpan, t.n)
	copy(out, t.spans[:t.n])
	return out
}

// phaseHists pairs each phase label with its histogram.
func (t *SpanTable) phaseHists() []struct {
	name string
	h    *Histogram
} {
	return []struct {
		name string
		h    *Histogram
	}{
		{"copy", t.hCopy},
		{"verify", t.hVerify},
		{"plant", t.hPlant},
		{"total", t.hTotal},
	}
}

// RegisterMetrics attaches the span aggregates to a registry:
// reloc.spans, reloc.committed/aborted/torn, and one histogram per
// phase (reloc.copy_cycles etc). Register once per registry.
func (t *SpanTable) RegisterMetrics(r *Registry) {
	r.GaugeFunc("reloc.spans", func() float64 { return float64(t.nextID) })
	r.GaugeFunc("reloc.committed", func() float64 { return float64(t.committed) })
	r.GaugeFunc("reloc.aborted", func() float64 { return float64(t.aborted) })
	r.GaugeFunc("reloc.torn", func() float64 { return float64(t.torn) })
	r.AttachHistogram("reloc.copy_cycles", t.hCopy)
	r.AttachHistogram("reloc.verify_cycles", t.hVerify)
	r.AttachHistogram("reloc.plant_cycles", t.hPlant)
	r.AttachHistogram("reloc.total_cycles", t.hTotal)
}

// Snapshot returns an immutable digest with at most maxRecent retained
// spans (maxRecent <= 0 keeps them all).
func (t *SpanTable) Snapshot(maxRecent int) SpanSnapshot {
	if t == nil {
		return SpanSnapshot{}
	}
	recent := t.Spans()
	if maxRecent > 0 && len(recent) > maxRecent {
		recent = recent[len(recent)-maxRecent:]
	}
	snap := SpanSnapshot{
		Total:     t.nextID,
		Committed: t.committed,
		Aborted:   t.aborted,
		Torn:      t.torn,
		Recent:    recent,
	}
	for _, ph := range t.phaseHists() {
		snap.Phases = append(snap.Phases, PhaseSummary{
			Phase: ph.name,
			Count: ph.h.Count(),
			P50:   ph.h.Quantile(0.50),
			P95:   ph.h.Quantile(0.95),
			Max:   ph.h.Max(),
		})
	}
	return snap
}

// Report renders the relocation-span digest: outcome tallies and the
// p50/p95/max cycle cost of each two-phase-commit phase (the
// -relocation-report table). When harts other than the guest's ran
// relocations, the outcomes are also split by hart.
func (t *SpanTable) Report() *report.Table {
	tab := report.New("Relocation spans (two-phase commit cost per phase)",
		"phase", "count", "p50 cyc", "p95 cyc", "max cyc")
	if t == nil {
		return tab
	}
	for _, ph := range t.phaseHists() {
		tab.Add(ph.name, fmt.Sprint(ph.h.Count()),
			fmt.Sprintf("%.0f", ph.h.Quantile(0.50)),
			fmt.Sprintf("%.0f", ph.h.Quantile(0.95)),
			fmt.Sprintf("%.0f", ph.h.Max()))
	}
	addOutcomes := func(label string, o outcomeTally) {
		tab.Add(label,
			fmt.Sprintf("%d committed", o.committed),
			fmt.Sprintf("%d aborted", o.aborted),
			fmt.Sprintf("%d torn", o.torn), "")
	}
	addOutcomes("outcomes", t.outcomeTally)
	if len(t.byHart) > 1 {
		for h, o := range t.byHart {
			addOutcomes(fmt.Sprintf("hart %d", h), o)
		}
	}
	return tab
}
