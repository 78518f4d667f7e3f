package exp

import (
	"testing"
	"time"

	"memfwd/internal/obs"
)

func TestProgressWorkersAndUtilization(t *testing.T) {
	var nilP *Progress
	if nilP.Workers() != 0 || nilP.Utilization() != 0 {
		t.Fatal("nil Progress telemetry accessors not zero")
	}
	p := &Progress{}
	if p.Utilization() != 0 {
		t.Fatal("Utilization before any run should be 0")
	}
	_, errs := RunChecked(Config{Jobs: 3, Progress: p}, specN(9),
		func(i int, s Spec) int {
			time.Sleep(5 * time.Millisecond)
			return i
		})
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if p.Workers() != 3 {
		t.Fatalf("Workers = %d, want 3", p.Workers())
	}
	u := p.Utilization()
	if u <= 0 {
		t.Fatalf("Utilization = %v, want > 0 after busy cells", u)
	}
	// Conservation: the pool cannot be more than fully busy (small
	// scheduling slack tolerated).
	if u > 1.05 {
		t.Fatalf("Utilization = %v, want <= 1", u)
	}
	// A wider second run raises the high-water worker count.
	RunChecked(Config{Jobs: 5, Progress: p}, specN(5), func(i int, s Spec) int { return i })
	if p.Workers() != 5 {
		t.Fatalf("Workers after wider run = %d, want 5", p.Workers())
	}
}

func TestProgressTelemetryMetrics(t *testing.T) {
	p := &Progress{}
	r := obs.NewRegistry()
	p.RegisterMetrics(r)
	RunChecked(Config{Jobs: 2, Progress: p}, specN(4),
		func(i int, s Spec) int {
			time.Sleep(time.Millisecond)
			return i
		})
	vals := map[string]float64{}
	for _, mv := range r.Snapshot() {
		vals[mv.Name] = mv.Value
	}
	if vals["exp.workers"] != 2 {
		t.Fatalf("exp.workers = %v, want 2", vals["exp.workers"])
	}
	if u, ok := vals["exp.pool.utilization"]; !ok || u < 0 {
		t.Fatalf("exp.pool.utilization = %v (present=%v)", u, ok)
	}
}
