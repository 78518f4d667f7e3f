package obs

import (
	"strings"
	"testing"
)

func TestNilHeatMapIsSafeAndFree(t *testing.T) {
	var h *HeatMap
	h.OnAlloc(0x100, 64)
	h.OnFree(0x100)
	h.RecordAccess(0x100, 0x100, false, 0)
	h.RecordTrap(0x100, 12)
	if h.Len() != 0 || h.Untracked() != 0 || h.Top(4) != nil || h.LongestChains(4) != nil {
		t.Fatal("nil heat map should report nothing")
	}
	if _, ok := h.Resolve(0x100); ok {
		t.Fatal("nil Resolve should miss")
	}
	if snap := h.Snapshot(4); snap.Objects != 0 || snap.Hottest != nil {
		t.Fatalf("nil snapshot not empty: %+v", snap)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		h.RecordAccess(0x100, 0x100, true, 0)
	})
	if allocs != 0 {
		t.Fatalf("nil RecordAccess allocates %v/op, want 0", allocs)
	}
}

func TestHeatMapAttributesAccesses(t *testing.T) {
	h := NewHeatMap(16, 0)
	h.OnAlloc(0x100, 24) // words 0x100, 0x108, 0x110
	h.OnAlloc(0x200, 8)

	h.RecordAccess(0x100, 0x100, false, 0) // load, direct
	h.RecordAccess(0x110, 0x110, true, 0)  // store to last word, same object
	h.RecordAccess(0x108, 0x900, false, 2) // forwarded load, 2 hops
	h.RecordAccess(0x200, 0x200, false, 0)
	h.RecordAccess(0x900, 0x900, false, 0) // untracked
	h.RecordTrap(0x100, 40)

	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2", h.Len())
	}
	if h.Untracked() != 1 {
		t.Fatalf("Untracked = %d, want 1", h.Untracked())
	}
	top := h.Top(1)
	if len(top) != 1 || top[0].Base != 0x100 {
		t.Fatalf("Top(1) = %+v, want object 0x100", top)
	}
	o := top[0]
	if o.Loads != 2 || o.Stores != 1 || o.Forwarded != 1 || o.Hops != 2 || o.MaxHops != 2 {
		t.Fatalf("counters wrong: %+v", o)
	}
	if o.Traps != 1 || o.TrapCyc != 40 {
		t.Fatalf("trap accounting wrong: %+v", o)
	}
}

func TestHeatMapResolve(t *testing.T) {
	h := NewHeatMap(16, 0)
	h.OnAlloc(0x100, 24)
	if base, ok := h.Resolve(0x110); !ok || base != 0x100 {
		t.Fatalf("Resolve(0x110) = %#x,%v, want 0x100,true", base, ok)
	}
	if _, ok := h.Resolve(0x118); ok {
		t.Fatal("Resolve past the block should miss")
	}
	h.OnFree(0x100)
	if _, ok := h.Resolve(0x100); ok {
		t.Fatal("Resolve after free should miss")
	}
}

// TestHeatMapFinalFallback: an access whose initial address resolves to
// nothing but whose final (post-forwarding) address is tracked lands on
// the target object — heat follows relocated data whose source block
// was never tracked.
func TestHeatMapFinalFallback(t *testing.T) {
	h := NewHeatMap(16, 0)
	h.OnAlloc(0x800, 16) // relocation target block
	h.RecordAccess(0x100, 0x808, false, 1)
	top := h.Top(1)
	if len(top) != 1 || top[0].Base != 0x800 || top[0].Loads != 1 {
		t.Fatalf("final-address fallback missed: %+v", top)
	}
	if h.Untracked() != 0 {
		t.Fatalf("Untracked = %d, want 0", h.Untracked())
	}
}

func TestHeatMapFreeRetainsProfileUntilReuse(t *testing.T) {
	h := NewHeatMap(16, 0)
	h.OnAlloc(0x100, 8)
	h.RecordAccess(0x100, 0x100, false, 0)
	h.OnFree(0x100)
	// Profile retained (dead objects are still Top candidates)...
	top := h.Top(1)
	if len(top) != 1 || top[0].Live || top[0].Loads != 1 {
		t.Fatalf("freed object profile lost: %+v", top)
	}
	// ...but its words no longer attribute.
	h.RecordAccess(0x100, 0x100, false, 0)
	if h.Untracked() != 1 {
		t.Fatalf("access to freed block tracked: Untracked = %d", h.Untracked())
	}
	// Address reuse replaces the dead entry.
	h.OnAlloc(0x100, 8)
	top = h.Top(1)
	if len(top) != 1 || !top[0].Live || top[0].Loads != 0 {
		t.Fatalf("reused base kept stale profile: %+v", top)
	}
}

func TestHeatMapEvictsColdestPreferringDead(t *testing.T) {
	h := NewHeatMap(2, 0)
	h.OnAlloc(0x100, 8)
	h.OnAlloc(0x200, 8)
	// 0x100 is hot, 0x200 cold but both live; a dead-but-hot third...
	for i := 0; i < 10; i++ {
		h.RecordAccess(0x100, 0x100, false, 0)
	}
	h.RecordAccess(0x200, 0x200, false, 0)
	h.OnFree(0x100)

	// At capacity: the dead 0x100 goes first despite being hottest.
	h.OnAlloc(0x300, 8)
	if _, ok := h.objs[0x100]; ok {
		t.Fatal("dead entry should be evicted before live ones")
	}
	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2", h.Len())
	}
	// All live now: the coldest (0x300, zero heat) goes.
	h.RecordAccess(0x200, 0x200, false, 0)
	h.OnAlloc(0x400, 8)
	if _, ok := h.objs[0x300]; ok {
		t.Fatal("coldest live entry should be evicted")
	}
	snap := h.Snapshot(0)
	if snap.Evicted != 2 {
		t.Fatalf("Evicted = %d, want 2", snap.Evicted)
	}
}

func TestHeatMapEpochDecay(t *testing.T) {
	h := NewHeatMap(16, 4) // epoch every 4 recorded accesses
	h.OnAlloc(0x100, 8)
	h.OnAlloc(0x200, 8)
	h.RecordAccess(0x200, 0x200, false, 0) // one access on 0x200
	for i := 0; i < 3; i++ {               // three more trip the epoch
		h.RecordAccess(0x100, 0x100, true, 1)
	}
	snap := h.Snapshot(4)
	if snap.Epochs != 1 {
		t.Fatalf("Epochs = %d, want 1", snap.Epochs)
	}
	byBase := map[uint64]HeatObject{}
	for _, o := range snap.Hottest {
		byBase[o.Base] = o
	}
	// 3 stores and 3 hops halve to 1; 1 load halves to 0.
	if o := byBase[0x100]; o.Stores != 1 || o.Hops != 1 || o.Forwarded != 1 {
		t.Fatalf("0x100 after decay: %+v", o)
	}
	if o := byBase[0x200]; o.Loads != 0 {
		t.Fatalf("0x200 after decay: %+v", o)
	}
	// MaxHops is a high-water mark: it survives decay.
	if o := byBase[0x100]; o.MaxHops != 1 {
		t.Fatalf("MaxHops decayed: %+v", o)
	}
}

func TestHeatMapDecayDropsColdDead(t *testing.T) {
	h := NewHeatMap(16, 2)
	h.OnAlloc(0x100, 8)
	h.RecordAccess(0x100, 0x100, false, 0)
	h.OnFree(0x100)
	// One more access trips the epoch; 1 load halves to 0 and the dead
	// zero-heat entry is dropped.
	h.OnAlloc(0x200, 8)
	h.RecordAccess(0x200, 0x200, false, 0)
	if _, ok := h.objs[0x100]; ok {
		t.Fatal("cold dead entry should be dropped at epoch")
	}
}

func TestHeatMapLongestChains(t *testing.T) {
	h := NewHeatMap(16, 0)
	h.OnAlloc(0x100, 8)
	h.OnAlloc(0x200, 8)
	h.OnAlloc(0x300, 8)
	h.RecordAccess(0x100, 0x100, false, 3)
	h.RecordAccess(0x200, 0x200, false, 1)
	h.RecordAccess(0x300, 0x300, false, 0) // no hops: not a chain candidate
	h.OnFree(0x100)                        // dead: excluded
	chains := h.LongestChains(4)
	if len(chains) != 1 || chains[0].Base != 0x200 {
		t.Fatalf("LongestChains = %+v, want only live 0x200", chains)
	}
}

func TestHeatMapTopDeterministicTiebreak(t *testing.T) {
	h := NewHeatMap(16, 0)
	for _, base := range []uint64{0x300, 0x100, 0x200} {
		h.OnAlloc(base, 8)
		h.RecordAccess(base, base, false, 0) // equal heat everywhere
	}
	top := h.Top(3)
	if top[0].Base != 0x100 || top[1].Base != 0x200 || top[2].Base != 0x300 {
		t.Fatalf("equal-heat tiebreak not base-ascending: %+v", top)
	}
}

func TestHeatMapReportAndMetrics(t *testing.T) {
	h := NewHeatMap(16, 0)
	h.OnAlloc(0x1000, 32)
	h.RecordAccess(0x1000, 0x1000, false, 0)
	h.RecordAccess(0x1008, 0x1008, true, 2)
	out := h.Report(4).String()
	for _, want := range []string{"0x1000", "32", "yes", "2(2)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	r := NewRegistry()
	h.RegisterMetrics(r)
	vals := map[string]float64{}
	for _, mv := range r.Snapshot() {
		vals[mv.Name] = mv.Value
	}
	if vals["heat.objects"] != 1 || vals["heat.untracked"] != 0 {
		t.Fatalf("metrics wrong: %v", vals)
	}
}

// TestHeatMapChangeLog: every kind of change logs a profile once per
// drain with the base it held when logged; an evicted id reused for
// another block still names the evicted base as was and reads as the
// newcomer through Profile; with no consumer the log stays bounded by
// the slab however many changes it sees.
func TestHeatMapChangeLog(t *testing.T) {
	h := NewHeatMap(2, 1<<30)
	drain := func() map[uint32]uint64 {
		got := map[uint32]uint64{}
		h.Drain(func(id uint32, was uint64) {
			if _, dup := got[id]; dup {
				t.Fatalf("id %d drained twice", id)
			}
			got[id] = was
		})
		return got
	}
	h.OnAlloc(0x100, 64)
	h.OnAlloc(0x200, 64)
	a, _ := h.ID(0x100)
	b, _ := h.ID(0x200)
	if got := drain(); len(got) != 2 || got[a] != 0x100 || got[b] != 0x200 {
		t.Fatalf("allocs logged %v", got)
	}
	if got := drain(); len(got) != 0 {
		t.Fatalf("second drain %v, want empty", got)
	}
	for i := 0; i < 5; i++ {
		h.RecordAccess(0x108, 0x108, i%2 == 0, 0)
	}
	h.RecordTrap(0x200, 3)
	h.RecordAccess(0x900, 0x900, false, 0) // untracked: no profile changes
	if got := drain(); len(got) != 2 || got[a] != 0x100 || got[b] != 0x200 {
		t.Fatalf("accesses and trap logged %v", got)
	}
	h.OnFree(0x200)
	h.OnAlloc(0x300, 64) // full: evicts the dead 0x200, reusing its id
	c, _ := h.ID(0x300)
	if c != b {
		t.Fatalf("newcomer took id %d, want the evicted %d", c, b)
	}
	got := drain()
	if len(got) != 1 || got[b] != 0x200 {
		t.Fatalf("free, eviction and reuse logged %v, want id %d once as 0x200", got, b)
	}
	if o := h.Profile(b); o == nil || o.Base != 0x300 {
		t.Fatalf("Profile(%d) = %+v, want the newcomer", b, o)
	}
	if h.Epochs() != 0 || h.Profile(0) != nil || h.Profile(99) != nil {
		t.Fatal("no epoch has passed, and ids 0 and 99 name no profile")
	}
	for i := 0; i < 1000; i++ {
		base := uint64(0x1000 + 0x100*(i%7))
		h.OnAlloc(base, 64)
		h.RecordAccess(base, base, true, 0)
		h.OnFree(base)
	}
	if len(h.log) > len(h.slab) {
		t.Fatalf("undrained log holds %d entries for %d slab ids", len(h.log), len(h.slab))
	}
}
