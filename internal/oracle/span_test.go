package oracle

import (
	"strings"
	"testing"

	"memfwd/internal/apps/app"
	"memfwd/internal/apps/health"
	"memfwd/internal/apps/mst"
	"memfwd/internal/fault"
	"memfwd/internal/mem"
	"memfwd/internal/obs"
	"memfwd/internal/opt"
	"memfwd/internal/sim"
)

// TestOracleMachineRecordsZeroWidthSpans: the timing-free oracle
// machine satisfies the span-recorder surface with Now() == 0, so
// relocation spans keep full structure (identity, chains, outcome)
// with zero-width phases.
func TestOracleMachineRecordsZeroWidthSpans(t *testing.T) {
	m := New(Config{})
	st := obs.NewSpanTable(8)
	m.SetSpans(st)
	base := m.Malloc(2 * mem.WordSize)
	m.StoreWord(base, 11)
	m.StoreWord(base+8, 22)
	_, heapEnd := m.Alloc.Range()
	tgt := (heapEnd + 0x1F_FFFF) &^ mem.Addr(0xF_FFFF)
	if err := opt.TryRelocate(m, base, tgt, 2); err != nil {
		t.Fatal(err)
	}
	spans := st.Spans()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Outcome != obs.RelocCommitted || s.ChainAfter != 1 || s.Words != 2 {
		t.Fatalf("structure wrong on oracle: %+v", s)
	}
	if s.Begin != 0 || s.TotalCycles != 0 || s.CopyCycles != 0 || s.PlantCycles != 0 {
		t.Fatalf("oracle spans should be zero-width: %+v", s)
	}
}

// TestRelocatorKeepsGuestSpans: with the chaos adversary wrapped around
// a span-recording machine, the span table records every committed
// relocation — the guest's opt-pass moves, which reach TryRelocate
// through the adversary, as well as the adversary's own. A wrapper that
// hides the machine's span table from TryRelocate loses the guest's
// spans and keeps only its own.
func TestRelocatorKeepsGuestSpans(t *testing.T) {
	m := sim.New(sim.Config{})
	spans := obs.NewSpanTable(0)
	m.SetSpans(spans)
	rel := NewRelocator(m, 5, 0)
	res := health.App.Run(rel, app.Config{Opt: true, Seed: 1})

	if res.Relocated == 0 || rel.Relocations == 0 {
		t.Fatalf("run exercised too little: %d guest relocations, %d chaos relocations", res.Relocated, rel.Relocations)
	}
	committed, _, _ := spans.Outcomes()
	if want := uint64(res.Relocated + rel.Relocations); committed != want {
		t.Fatalf("%d committed spans, want %d = %d guest relocations + %d chaos relocations",
			committed, want, res.Relocated, rel.Relocations)
	}
}

// TestChaosEpisodesPopulateSpanReport attaches one shared span table
// to the guest machines of a batch of fault-injecting chaos episodes
// and checks the relocation-span report aggregates them: every
// adversary relocation (clean and faulted) lands as a span, committed
// and non-committed outcomes both appear, faulted spans carry their
// injector shot annotations, and the per-phase p50/p95 digest is
// well-formed. This is the flight-recorder view of the chaos suite.
func TestChaosEpisodesPopulateSpanReport(t *testing.T) {
	st := obs.NewSpanTable(4096)
	kinds := []fault.Kind{fault.Crash, fault.FlipBit, fault.FBitSet, fault.FBitClear}
	seeds := int64(2)
	if testing.Short() {
		// The race CI leg trims the matrix; FlipBit alone still produces
		// both committed and torn outcomes with fault annotations.
		kinds = kinds[1:2]
		seeds = 1
	}
	wantEpisodes := len(kinds) * int(seeds)
	episodes := 0
	for _, k := range kinds {
		for seed := int64(1); seed <= seeds; seed++ {
			m := New(Config{})
			m.SetSpans(st)
			rel := NewRelocator(m, int64(100*k)+seed, 24)
			rel.EnableFaults([]fault.Kind{k})
			mst.App.Run(rel, app.Config{Seed: 11})
			if rel.Relocations == 0 {
				t.Fatalf("kind %v seed %d: episode relocated nothing", k, seed)
			}
			episodes++
		}
	}
	if episodes != wantEpisodes {
		t.Fatalf("ran %d episodes, want %d", episodes, wantEpisodes)
	}

	committed, aborted, torn := st.Outcomes()
	if committed == 0 {
		t.Fatal("no committed spans across the chaos batch")
	}
	// Crash faults panic past the recorder (no span, like a process
	// death); flips and fbit faults tear or abort and must be visible.
	if aborted+torn == 0 {
		t.Fatal("fault-injecting episodes recorded no non-committed spans")
	}
	if st.Count() != committed+aborted+torn {
		t.Fatalf("outcome tallies %d+%d+%d disagree with count %d",
			committed, aborted, torn, st.Count())
	}

	annotated := 0
	for _, s := range st.Spans() {
		if len(s.Faults) > 0 {
			annotated++
			if s.Outcome == obs.RelocCommitted && s.Err != "" {
				t.Fatalf("committed span with an error: %+v", s)
			}
		}
		if s.Outcome != obs.RelocCommitted && s.Err == "" {
			t.Fatalf("non-committed span without a reason: %+v", s)
		}
	}
	if annotated == 0 {
		t.Fatal("no span carries a fault annotation")
	}

	snap := st.Snapshot(0)
	for _, ph := range snap.Phases {
		if ph.Count == 0 {
			continue
		}
		if ph.P50 < 0 || ph.P95 < ph.P50 || ph.Max < ph.P95 {
			t.Fatalf("phase %s digest not monotone: p50=%v p95=%v max=%v",
				ph.Phase, ph.P50, ph.P95, ph.Max)
		}
	}

	out := st.Report().String()
	for _, want := range []string{"copy", "plant", "total", "p50 cyc", "p95 cyc", "committed", "torn"} {
		if !strings.Contains(out, want) {
			t.Fatalf("span report missing %q:\n%s", want, out)
		}
	}
}
