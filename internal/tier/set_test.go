package tier

import (
	"math/rand"
	"slices"
	"testing"

	"memfwd/internal/mem"
)

// TestBaseSet holds the run-split ordered set to a sorted slice through
// random adds and removes that grow it past many runs and shrink it to
// empty twice, checking the order, the runs' bounds and density, and an
// early-stopping walk.
func TestBaseSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s baseSet
	var model []mem.Addr
	for step := 0; step < 20000; step++ {
		grow := (step/5000)%2 == 0
		k := mem.Addr(rng.Intn(4096) * 8)
		i, in := slices.BinarySearch(model, k)
		switch {
		case !in && (grow || rng.Intn(4) == 0):
			s.add(k)
			model = slices.Insert(model, i, k)
		case in && (!grow || rng.Intn(3) == 0):
			s.remove(k)
			model = slices.Delete(model, i, i+1)
		}
		if step%97 != 0 {
			continue
		}
		var got []mem.Addr
		for j, r := range s.runs {
			if len(r) == 0 || len(r) > runCap {
				t.Fatalf("step %d: run %d has %d bases", step, j, len(r))
			}
		}
		s.walk(func(b mem.Addr) bool { got = append(got, b); return true })
		if !slices.Equal(got, model) {
			t.Fatalf("step %d: walk %v, want %v", step, got, model)
		}
		if len(model) > 0 && len(s.runs) > 4*len(model)/runCap+2 {
			t.Fatalf("step %d: %d runs for %d bases", step, len(s.runs), len(model))
		}
		n := 0
		s.walk(func(mem.Addr) bool { n++; return n < 3 })
		if want := min(3, len(model)); n != want {
			t.Fatalf("step %d: stopped walk visited %d, want %d", step, n, want)
		}
	}
}
