package exp

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"memfwd/internal/obs"
)

func specN(n int) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = Spec{App: fmt.Sprintf("app%d", i%5), Line: 32 << (i % 3), Variant: "N"}
	}
	return specs
}

// runAll runs f, which cannot fail, through RunChecked and reports any
// JobError as a test failure. It may be called off the test goroutine.
func runAll[R any](t *testing.T, cfg Config, specs []Spec, f func(i int, s Spec) R) []R {
	t.Helper()
	results, errs := RunChecked(cfg, specs, f)
	for _, e := range errs {
		t.Errorf("unexpected job failure: %v", e)
	}
	return results
}

func TestResultsInSpecOrder(t *testing.T) {
	specs := specN(100)
	got := runAll(t, Config{Jobs: 8}, specs, func(i int, s Spec) int {
		return i * 7
	})
	if len(got) != len(specs) {
		t.Fatalf("len = %d, want %d", len(got), len(specs))
	}
	for i, v := range got {
		if v != i*7 {
			t.Fatalf("results[%d] = %d, want %d (out of spec order)", i, v, i*7)
		}
	}
}

func TestDeterministicAcrossJobCounts(t *testing.T) {
	specs := specN(60)
	f := func(i int, s Spec) string { return fmt.Sprintf("%d:%s", i, s) }
	serial := runAll(t, Config{Jobs: 1}, specs, f)
	for _, jobs := range []int{2, 7, 64} {
		got := runAll(t, Config{Jobs: jobs}, specs, f)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("jobs=%d: results[%d] = %q, want %q", jobs, i, got[i], serial[i])
			}
		}
	}
}

func TestEmptyAndDefaults(t *testing.T) {
	if got := runAll(t, Config{}, nil, func(i int, s Spec) int { return 1 }); len(got) != 0 {
		t.Fatalf("empty specs produced %d results", len(got))
	}
	// Jobs <= 0 defaults, jobs > len clamps: both must still run all.
	for _, jobs := range []int{0, -3, 99} {
		got := runAll(t, Config{Jobs: jobs}, specN(3), func(i int, s Spec) int { return i })
		if len(got) != 3 || got[2] != 2 {
			t.Fatalf("jobs=%d: got %v", jobs, got)
		}
	}
}

// TestJobsRunConcurrently proves the pool really overlaps jobs: four
// jobs each block until all four are in flight, which can only resolve
// with >= 4 workers running at once.
func TestJobsRunConcurrently(t *testing.T) {
	const n = 4
	var barrier sync.WaitGroup
	barrier.Add(n)
	done := make(chan struct{})
	go func() {
		runAll(t, Config{Jobs: n}, specN(n), func(i int, s Spec) int {
			barrier.Done()
			barrier.Wait() // blocks unless all n jobs are in flight
			return i
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("pool did not run jobs concurrently")
	}
}

func TestProgressCounts(t *testing.T) {
	p := &Progress{}
	specs := specN(12)
	runAll(t, Config{Jobs: 3, Progress: p}, specs, func(i int, s Spec) int {
		time.Sleep(time.Millisecond)
		return i
	})
	if p.Done() != len(specs) || p.Queued() != 0 || p.Running() != 0 {
		t.Fatalf("done=%d queued=%d running=%d after completion", p.Done(), p.Queued(), p.Running())
	}
	if p.CellWallSum() <= 0 || p.CellWallMax() <= 0 || p.CellWallLast() <= 0 {
		t.Fatalf("wall aggregates not recorded: sum=%v max=%v last=%v",
			p.CellWallSum(), p.CellWallMax(), p.CellWallLast())
	}
	if p.CellWallMax() > p.CellWallSum() {
		t.Fatalf("max %v exceeds sum %v", p.CellWallMax(), p.CellWallSum())
	}
	// A second Run on the same Progress accumulates.
	runAll(t, Config{Jobs: 2, Progress: p}, specN(5), func(i int, s Spec) int { return i })
	if p.Done() != len(specs)+5 {
		t.Fatalf("done = %d after second run, want %d", p.Done(), len(specs)+5)
	}
}

func TestNilProgressAndTracerSafe(t *testing.T) {
	var p *Progress
	if p.Done() != 0 || p.Queued() != 0 || p.Running() != 0 || p.CellWallSum() != 0 ||
		p.CellWallMax() != 0 || p.CellWallLast() != 0 {
		t.Fatal("nil Progress accessors not zero")
	}
	got := runAll(t, Config{Jobs: 4}, specN(8), func(i int, s Spec) int { return i })
	if len(got) != 8 {
		t.Fatalf("run without observers returned %d results", len(got))
	}
}

func TestRegisterMetrics(t *testing.T) {
	p := &Progress{}
	r := obs.NewRegistry()
	p.RegisterMetrics(r)
	runAll(t, Config{Jobs: 2, Progress: p}, specN(6), func(i int, s Spec) int {
		time.Sleep(time.Millisecond)
		return i
	})
	want := map[string]float64{
		"exp.jobs.queued":  0,
		"exp.jobs.running": 0,
		"exp.jobs.done":    6,
	}
	got := map[string]float64{}
	for _, m := range r.Snapshot() {
		got[m.Name] = m.Value
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
	if got["exp.cell.wall_seconds.sum"] <= 0 {
		t.Errorf("exp.cell.wall_seconds.sum = %v, want > 0", got["exp.cell.wall_seconds.sum"])
	}
}

// TestTracerEventPairs checks the phaseBegin/phaseEnd emission: one
// pair per job, labels matching the spec, begin before end per job, and
// non-decreasing wall-clock stamps within each pair.
func TestTracerEventPairs(t *testing.T) {
	sink := &obs.MemorySink{}
	tr := obs.NewTracer(sink, 0)
	specs := specN(10)
	runAll(t, Config{Jobs: 4, Tracer: tr}, specs, func(i int, s Spec) int { return i })
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	type pair struct {
		begin, end int
		beginAt    int64
	}
	pairs := make(map[uint64]*pair)
	for _, ev := range sink.Events {
		p := pairs[ev.N]
		if p == nil {
			p = &pair{}
			pairs[ev.N] = p
		}
		if ev.Label != specs[ev.N].String() {
			t.Fatalf("job %d labeled %q, want %q", ev.N, ev.Label, specs[ev.N].String())
		}
		switch ev.Kind {
		case obs.KPhaseBegin:
			p.begin++
			p.beginAt = ev.Cycle
		case obs.KPhaseEnd:
			p.end++
			if p.begin != 1 {
				t.Fatalf("job %d ended without beginning", ev.N)
			}
			if ev.Cycle < p.beginAt {
				t.Fatalf("job %d: end stamp %d before begin stamp %d", ev.N, ev.Cycle, p.beginAt)
			}
		default:
			t.Fatalf("unexpected event kind %v", ev.Kind)
		}
	}
	if len(pairs) != len(specs) {
		t.Fatalf("%d traced jobs, want %d", len(pairs), len(specs))
	}
	for n, p := range pairs {
		if p.begin != 1 || p.end != 1 {
			t.Fatalf("job %d: %d begins, %d ends", n, p.begin, p.end)
		}
	}
}

func TestSpecString(t *testing.T) {
	cases := []struct {
		s    Spec
		want string
	}{
		{Spec{App: "health", Line: 32, Variant: "NP", Block: 4}, "health/line32/NP/blk4"},
		{Spec{App: "smv", Line: 32, Variant: "Perf"}, "smv/line32/Perf"},
		{Spec{App: "false-sharing", Variant: "packed"}, "false-sharing/packed"},
		{Spec{}, ""},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.s, got, c.want)
		}
	}
}
