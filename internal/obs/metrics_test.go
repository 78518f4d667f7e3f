package obs

import (
	"sort"
	"strings"
	"testing"
)

func snapMap(r *Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, mv := range r.Snapshot() {
		out[mv.Name] = mv.Value
	}
	return out
}

func TestGaugeFuncAndGroup(t *testing.T) {
	r := NewRegistry()
	backing := uint64(7)
	r.GaugeFunc("view", func() float64 { return float64(backing) })
	reads := 0
	r.GaugeGroup("pair", func(emit func(string, float64)) {
		reads++
		emit("pair.a", float64(backing))
		emit("pair.b", 2*float64(backing))
	})

	m := snapMap(r)
	if m["view"] != 7 || m["pair.a"] != 7 || m["pair.b"] != 14 {
		t.Fatalf("snapshot wrong: %v", m)
	}
	if _, ok := m["pair"]; ok {
		t.Fatalf("group key leaked into the snapshot: %v", m)
	}
	if reads != 1 {
		t.Fatalf("group evaluated %d times in one snapshot, want 1", reads)
	}
	// Views are live: changing the backing value changes the next read.
	backing = 11
	if m := snapMap(r); m["view"] != 11 || m["pair.b"] != 22 {
		t.Fatalf("views are not live: %v", m)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram(1, 2, 4)
	r.AttachHistogram("hops", h)
	for _, v := range []float64{1, 1, 2, 3, 9} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 16 {
		t.Fatalf("count/sum = %d/%v", h.Count(), h.Sum())
	}
	m := snapMap(r)
	if m["hops.count"] != 5 || m["hops.sum"] != 16 {
		t.Fatalf("expanded count/sum wrong: %v", m)
	}
	// Cumulative buckets: <=1 has 2, <=2 has 3, <=4 has 4 (9 overflows).
	if m["hops.le1"] != 2 || m["hops.le2"] != 3 || m["hops.le4"] != 4 {
		t.Fatalf("buckets wrong: %v", m)
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-ascending bounds")
		}
	}()
	NewHistogram(2, 1)
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("x", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate metric name")
		}
	}()
	r.GaugeGroup("x", func(func(string, float64)) {})
}

func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zebra", "alpha", "mid"} {
		r.GaugeFunc(name, func() float64 { return 0 })
	}
	snap := r.Snapshot()
	names := make([]string, len(snap))
	for i, mv := range snap {
		names[i] = mv.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("snapshot not sorted: %v", names)
	}
}

func TestTable(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("a.count", func() float64 { return 4 })
	r.GaugeFunc("b.rate", func() float64 { return 0.25 })
	zero := 0.0
	r.GaugeFunc("c.nan", func() float64 { return zero / zero })
	tab := r.Table().String()
	for _, want := range []string{"a.count", "0.2500", "c.nan"} {
		if !strings.Contains(tab, want) {
			t.Fatalf("table missing %q:\n%s", want, tab)
		}
	}
	if strings.Contains(tab, "NaN") {
		t.Fatalf("table renders a non-finite value:\n%s", tab)
	}
}
