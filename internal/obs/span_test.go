package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func committedSpan(src, tgt uint64, copyCyc, verifyCyc, plantCyc int64) RelocationSpan {
	return RelocationSpan{
		Src: src, Tgt: tgt, Words: 4,
		ChainBefore: 0, ChainAfter: 1,
		Begin: 100, CopyCycles: copyCyc, VerifyCycles: verifyCyc, PlantCycles: plantCyc,
		TotalCycles: copyCyc + verifyCyc + plantCyc,
		Outcome:     RelocCommitted,
	}
}

func TestNilSpanTableIsSafeAndFree(t *testing.T) {
	var st *SpanTable
	if id := st.Record(committedSpan(0x10, 0x20, 1, 1, 1)); id != 0 {
		t.Fatalf("nil Record returned id %d, want 0", id)
	}
	if st.Count() != 0 || st.Spans() != nil {
		t.Fatal("nil table should report nothing")
	}
	c, a, torn := st.Outcomes()
	if c != 0 || a != 0 || torn != 0 {
		t.Fatal("nil table outcomes should be zero")
	}
	if snap := st.Snapshot(10); snap.Total != 0 || snap.Recent != nil {
		t.Fatalf("nil snapshot not empty: %+v", snap)
	}
	if st.Report() == nil {
		t.Fatal("nil Report should still render an empty table")
	}
}

func TestSpanTableOutcomesAndIDs(t *testing.T) {
	st := NewSpanTable(8)
	id1 := st.Record(committedSpan(0x10, 0x20, 10, 2, 4))
	id2 := st.Record(RelocationSpan{Src: 0x30, Outcome: RelocAborted,
		ChainAfter: -1, CopyCycles: -1, VerifyCycles: -1, PlantCycles: -1,
		Err: "chain cap"})
	id3 := st.Record(RelocationSpan{Src: 0x40, Outcome: RelocTorn,
		ChainAfter: -1, CopyCycles: 12, VerifyCycles: 3, PlantCycles: -1,
		Err: "copy verify mismatch", Faults: []string{"flip@relocate.copy-write"}})
	if id1 != 1 || id2 != 2 || id3 != 3 {
		t.Fatalf("IDs = %d,%d,%d, want 1,2,3", id1, id2, id3)
	}
	c, a, torn := st.Outcomes()
	if c != 1 || a != 1 || torn != 1 {
		t.Fatalf("outcomes = %d/%d/%d, want 1/1/1", c, a, torn)
	}
	spans := st.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(spans))
	}
	if spans[1].Err != "chain cap" || spans[2].Faults[0] != "flip@relocate.copy-write" {
		t.Fatalf("annotations lost: %+v", spans[1:])
	}
}

func TestSpanTableSkipsUnreachedPhases(t *testing.T) {
	st := NewSpanTable(8)
	// One committed span reaches all phases; one abort reaches none.
	st.Record(committedSpan(0x10, 0x20, 10, 2, 4))
	st.Record(RelocationSpan{Outcome: RelocAborted,
		CopyCycles: -1, VerifyCycles: -1, PlantCycles: -1, TotalCycles: 1})
	snap := st.Snapshot(0)
	byPhase := map[string]PhaseSummary{}
	for _, p := range snap.Phases {
		byPhase[p.Phase] = p
	}
	if byPhase["copy"].Count != 1 || byPhase["verify"].Count != 1 || byPhase["plant"].Count != 1 {
		t.Fatalf("-1 phases leaked into histograms: %+v", snap.Phases)
	}
	if byPhase["total"].Count != 2 {
		t.Fatalf("total count = %d, want 2 (every span)", byPhase["total"].Count)
	}
	if byPhase["copy"].Max != 10 || byPhase["plant"].Max != 4 {
		t.Fatalf("phase maxima wrong: %+v", byPhase)
	}
}

func TestSpanTableRingWrap(t *testing.T) {
	st := NewSpanTable(4)
	for i := 0; i < 10; i++ {
		st.Record(committedSpan(uint64(i), uint64(i)+0x100, 1, 1, 1))
	}
	if st.Count() != 10 {
		t.Fatalf("Count = %d, want 10", st.Count())
	}
	spans := st.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if want := uint64(7 + i); s.ID != want {
			t.Fatalf("spans[%d].ID = %d, want %d (most recent window, in order)", i, s.ID, want)
		}
	}
	// Aggregates cover all 10, not just the window.
	c, _, _ := st.Outcomes()
	if c != 10 {
		t.Fatalf("committed = %d, want 10", c)
	}
	snap := st.Snapshot(2)
	if len(snap.Recent) != 2 || snap.Recent[1].ID != 10 {
		t.Fatalf("Snapshot(2) recent wrong: %+v", snap.Recent)
	}
}

func TestSpanTableQuantiles(t *testing.T) {
	st := NewSpanTable(0)
	// 100 spans with copy cost i+1: p50 ~ 50, p95 ~ 95 within a
	// histogram bucket's interpolation error.
	for i := 0; i < 100; i++ {
		st.Record(committedSpan(0x10, 0x20, int64(i+1), 0, 1))
	}
	snap := st.Snapshot(0)
	var copyPh PhaseSummary
	for _, p := range snap.Phases {
		if p.Phase == "copy" {
			copyPh = p
		}
	}
	if copyPh.P50 < 16 || copyPh.P50 > 64 {
		t.Fatalf("copy p50 = %v, want within bucket (16,64]", copyPh.P50)
	}
	if copyPh.P95 < 64 || copyPh.P95 > 100 {
		t.Fatalf("copy p95 = %v, want in (64,100]", copyPh.P95)
	}
	if copyPh.Max != 100 {
		t.Fatalf("copy max = %v, want 100", copyPh.Max)
	}
}

func TestSpanTableReport(t *testing.T) {
	st := NewSpanTable(0)
	st.Record(committedSpan(0x10, 0x20, 10, 2, 4))
	st.Record(RelocationSpan{Outcome: RelocTorn, CopyCycles: 5, VerifyCycles: -1, PlantCycles: -1})
	out := st.Report().String()
	for _, want := range []string{"copy", "verify", "plant", "total", "1 committed", "0 aborted", "1 torn"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// Only the guest's hart so far: no per-hart rows, no hart in JSON.
	if strings.Contains(out, "hart") {
		t.Fatalf("single-hart report split by hart:\n%s", out)
	}
	if buf, _ := json.Marshal(st.Spans()[0]); bytes.Contains(buf, []byte(`"hart"`)) {
		t.Fatalf("hart-0 span JSON carries a hart field: %s", buf)
	}
	// A relocator hart's span splits the outcomes by hart.
	hs := committedSpan(0x30, 0x40, 1, 1, 1)
	hs.Hart = 2
	st.Record(hs)
	out = st.Report().String()
	for _, want := range []string{"2 committed", "hart 0    1 committed  0 aborted  1 torn", "hart 1    0 committed", "hart 2    1 committed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if buf, _ := json.Marshal(hs); !bytes.Contains(buf, []byte(`"hart":2`)) {
		t.Fatalf("hart-2 span JSON lacks its hart: %s", buf)
	}
}

func TestSpanTableRegisterMetrics(t *testing.T) {
	st := NewSpanTable(0)
	r := NewRegistry()
	st.RegisterMetrics(r)
	st.Record(committedSpan(0x10, 0x20, 10, 2, 4))
	st.Record(RelocationSpan{Outcome: RelocAborted, CopyCycles: -1, VerifyCycles: -1, PlantCycles: -1})
	vals := map[string]float64{}
	for _, mv := range r.Snapshot() {
		vals[mv.Name] = mv.Value
	}
	if vals["reloc.spans"] != 2 || vals["reloc.committed"] != 1 || vals["reloc.aborted"] != 1 || vals["reloc.torn"] != 0 {
		t.Fatalf("metrics wrong: %v", vals)
	}
}

// TestSpanEmitNestedDurationEvents checks the trace-side rendering: one
// outer "relocate" slice enclosing per-phase slices, with unreached
// phases omitted, and the whole thing valid Perfetto trace_event JSON.
func TestSpanEmitNestedDurationEvents(t *testing.T) {
	st := NewSpanTable(0)
	ring := NewRing(64)
	st.Tracer = ring
	st.Record(committedSpan(0x10, 0x20, 10, 2, 4))

	evs := ring.Events()
	want := []struct {
		kind  Kind
		label string
		cycle int64
	}{
		{KSpanBegin, SpanRelocate, 100},
		{KSpanBegin, SpanCopy, 100},
		{KSpanEnd, SpanCopy, 110},
		{KSpanBegin, SpanVerify, 110},
		{KSpanEnd, SpanVerify, 112},
		{KSpanBegin, SpanPlant, 112},
		{KSpanEnd, SpanPlant, 116},
		{KSpanEnd, SpanRelocate, 116},
	}
	if len(evs) != len(want) {
		t.Fatalf("emitted %d events, want %d: %+v", len(evs), len(want), evs)
	}
	for i, w := range want {
		if evs[i].Kind != w.kind || evs[i].Label != w.label || evs[i].Cycle != w.cycle {
			t.Fatalf("event %d = {%v %q %d}, want {%v %q %d}",
				i, evs[i].Kind, evs[i].Label, evs[i].Cycle, w.kind, w.label, w.cycle)
		}
	}
	if evs[0].Addr != 0x10 || evs[0].Addr2 != 0x20 || evs[0].N != 4 {
		t.Fatalf("outer begin missing src/tgt/words: %+v", evs[0])
	}
}

func TestSpanEmitSkipsUnreachedPhases(t *testing.T) {
	st := NewSpanTable(0)
	ring := NewRing(64)
	st.Tracer = ring
	st.Record(RelocationSpan{Begin: 50, CopyCycles: 7, VerifyCycles: -1, PlantCycles: -1,
		TotalCycles: 9, Outcome: RelocTorn})
	evs := ring.Events()
	// relocate B, copy B, copy E, relocate E — verify/plant omitted.
	if len(evs) != 4 {
		t.Fatalf("emitted %d events, want 4: %+v", len(evs), evs)
	}
	if evs[1].Label != SpanCopy || evs[3].Label != SpanRelocate || evs[3].Cycle != 59 {
		t.Fatalf("wrong slice structure: %+v", evs)
	}
}

// TestPerfettoSpanDurationsValidJSON runs span events through the
// Perfetto sink and checks the output is a valid, balanced trace_event
// document with matched B/E pairs.
func TestPerfettoSpanDurationsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewPerfettoSink(&buf), 3) // force mid-span flushes
	st := NewSpanTable(0)
	st.Tracer = tr
	st.Record(committedSpan(0x1000, 0x2000, 10, 2, 4))
	st.Record(RelocationSpan{Begin: 200, CopyCycles: 3, VerifyCycles: -1, PlantCycles: -1,
		TotalCycles: 3, Outcome: RelocTorn})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("span trace not valid trace_event JSON: %v\n%s", err, buf.String())
	}
	if len(evs) != 12 {
		t.Fatalf("got %d trace events, want 12", len(evs))
	}
	depth := 0
	open := map[string]int{}
	for i, ev := range evs {
		switch ev["ph"] {
		case "B":
			depth++
			open[ev["name"].(string)]++
		case "E":
			depth--
			open[ev["name"].(string)]--
		default:
			t.Fatalf("event %d is not a duration event: %v", i, ev)
		}
		if depth < 0 {
			t.Fatalf("unbalanced E at event %d: %v", i, evs)
		}
	}
	if depth != 0 {
		t.Fatalf("unclosed slices: depth %d at end", depth)
	}
	for name, n := range open {
		if n != 0 {
			t.Fatalf("slice %q opened %+d more times than closed", name, n)
		}
	}
	if args, ok := evs[0]["args"].(map[string]any); !ok ||
		args["src"] != "0x1000" || args["tgt"] != "0x2000" || args["words"] != float64(4) {
		t.Fatalf("outer relocate args wrong: %v", evs[0])
	}
}
