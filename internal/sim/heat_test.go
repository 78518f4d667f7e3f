package sim

import (
	"testing"

	"memfwd/internal/core"
	"memfwd/internal/obs"
)

// TestHeatMapTracksMachineAccesses wires a heat map into a live machine
// and checks the Malloc/Free/Load/Store/trap feeds all attribute to the
// right object.
func TestHeatMapTracksMachineAccesses(t *testing.T) {
	m := newM()
	h := obs.NewHeatMap(64, 0)
	m.SetHeatMap(h)

	a := m.Malloc(24)
	b := m.Malloc(16)
	m.StoreWord(a, 1)
	m.StoreWord(a+8, 2)
	m.LoadWord(a)
	m.LoadWord(b)

	top := h.Top(2)
	if len(top) != 2 || top[0].Base != uint64(a) {
		t.Fatalf("Top = %+v, want %#x hottest", top, a)
	}
	if top[0].Stores != 2 || top[0].Loads != 1 {
		t.Fatalf("object a counters: %+v", top[0])
	}
	if top[1].Base != uint64(b) || top[1].Loads != 1 {
		t.Fatalf("object b counters: %+v", top[1])
	}

	// A forwarded access attributes to the ORIGINAL object (identity
	// follows the initial address) and records its hop count.
	src := m.Malloc(16)
	tgt := m.Malloc(16)
	m.StoreWord(src, 9)
	relocateRaw(m, src, tgt, 2)
	m.LoadWord(src)
	found := false
	for _, o := range h.Top(8) {
		if o.Base == uint64(src) {
			found = true
			if o.Forwarded == 0 || o.MaxHops != 1 {
				t.Fatalf("forwarded access not attributed: %+v", o)
			}
		}
	}
	if !found {
		t.Fatalf("source object missing from heat map")
	}

	// Trap cost lands on the same object, measured in machine cycles.
	m.SetTrap(func(core.Event) {})
	m.LoadWord(src)
	for _, o := range h.Top(8) {
		if o.Base == uint64(src) {
			if o.Traps != 1 || o.TrapCyc == 0 {
				t.Fatalf("trap not attributed with cost: %+v", o)
			}
		}
	}

	// Free marks the object dead and stops attribution.
	m.Free(b)
	for _, o := range h.Top(8) {
		if o.Base == uint64(b) && o.Live {
			t.Fatalf("freed object still live: %+v", o)
		}
	}
	before := h.Untracked()
	m.SetTrap(nil)
	m.LoadWord(b)
	if h.Untracked() != before+1 {
		t.Fatal("access to freed block still attributed")
	}
}

// TestHeatMapUntrackedTrapCountsOnce: a forwarded, trapped load of a
// block the heat map never saw is one untracked access. The trap's
// attribution used to count it a second time on top of the load's own.
func TestHeatMapUntrackedTrapCountsOnce(t *testing.T) {
	m := newM()
	src := m.Malloc(16)
	tgt := m.Malloc(16)
	m.StoreWord(src, 9)
	relocateRaw(m, src, tgt, 2)

	h := obs.NewHeatMap(64, 0)
	m.SetHeatMap(h) // attached after both blocks exist: neither is tracked
	m.SetTrap(func(core.Event) {})
	if m.LoadWord(src) != 9 {
		t.Fatal("forwarded load lost its value")
	}
	if m.stats.Traps != 1 {
		t.Fatalf("traps = %d, want the load to trap once", m.stats.Traps)
	}
	if got := h.Untracked(); got != 1 {
		t.Fatalf("Untracked = %d after one trapped load, want 1", got)
	}
}

// TestHeatMapDisabledZeroAlloc extends the zero-allocation acceptance
// guards to the heat-map-disabled hot path: with no heat map attached
// (the default) loads, stores, and forwarded accesses must stay
// allocation-free — the nil check is the only cost.
func TestHeatMapDisabledZeroAlloc(t *testing.T) {
	m := newM()
	if m.HeatMap() != nil {
		t.Fatal("heat map attached by default")
	}
	a := m.Malloc(4096)
	m.StoreWord(a, 7)
	src := m.Malloc(16)
	tgt := m.Malloc(16)
	m.StoreWord(src, 9)
	relocateRaw(m, src, tgt, 2)
	for i := 0; i < 100; i++ {
		m.LoadWord(a)
		m.StoreWord(a, uint64(i))
		m.LoadWord(src)
		m.Inst(1)
	}
	var sink uint64
	allocs := testing.AllocsPerRun(1000, func() {
		sink += m.LoadWord(a)
		m.StoreWord(a, 3)
		sink += m.LoadWord(src) // forwarded: walks the chain, heat still nil
	})
	if allocs != 0 {
		t.Fatalf("heat-disabled hot path allocated %.1f times per run, want 0", allocs)
	}
	_ = sink
}

// Satellite regression: heat identity must not alias across address
// reuse on the *untimed* allocator path. Before heat attribution moved
// to the allocator's OnEvent hook, only timed Malloc/Free fed the map;
// a block freed through Allocator.Free directly (arena carving, heap
// aging, tools) and re-allocated at the same base kept the dead
// object's decayed counters and its stale word index.
func TestHeatMapNoAliasOnUntimedReuse(t *testing.T) {
	m := newM()
	h := obs.NewHeatMap(64, 0)
	m.SetHeatMap(h)

	a := m.Malloc(64)
	m.StoreWord(a, 1)
	m.StoreWord(a+8, 2)
	m.LoadWord(a)
	if o, ok := h.Get(uint64(a)); !ok || o.Loads != 1 || o.Stores != 2 || !o.Live {
		t.Fatalf("first incarnation: %+v ok=%v", o, ok)
	}

	// Free and re-allocate through the UNTIMED allocator: same size
	// class, LIFO freelist, so the base comes straight back.
	m.Allocator().Free(a)
	if o, ok := h.Get(uint64(a)); !ok || o.Live {
		t.Fatalf("untimed free not observed: %+v ok=%v", o, ok)
	}
	b := m.Allocator().Alloc(64)
	if b != a {
		t.Fatalf("expected freelist reuse of %#x, got %#x", a, b)
	}

	// The reused base is a fresh object: live, zero counters.
	o, ok := h.Get(uint64(b))
	if !ok {
		t.Fatal("reused base not tracked")
	}
	if !o.Live {
		t.Fatalf("reused base not live: %+v", o)
	}
	if o.Loads != 0 || o.Stores != 0 {
		t.Fatalf("reused base inherited dead object's counters: %+v", o)
	}

	// And the word index points at the new incarnation.
	m.LoadWord(b + 8)
	if o, _ := h.Get(uint64(b)); o.Loads != 1 {
		t.Fatalf("access to reused block not attributed: %+v", o)
	}
}

// TestHeatMapDetach: SetHeatMap(nil) stops attribution mid-run.
func TestHeatMapDetach(t *testing.T) {
	m := newM()
	h := obs.NewHeatMap(8, 0)
	m.SetHeatMap(h)
	a := m.Malloc(8)
	m.LoadWord(a)
	m.SetHeatMap(nil)
	m.LoadWord(a)
	top := h.Top(1)
	if len(top) != 1 || top[0].Loads != 1 {
		t.Fatalf("attribution continued after detach: %+v", top)
	}
}
