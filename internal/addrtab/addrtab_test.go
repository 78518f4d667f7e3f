package addrtab

import "testing"

type entry struct {
	base  uint64
	ready int64
}

func TestTablePutGetOverwrite(t *testing.T) {
	tb := New[entry](16)
	if _, ok := tb.Get(42); ok {
		t.Fatal("empty table returned an entry")
	}
	tb.Put(42, entry{base: 100, ready: 7})
	tb.Put(43, entry{base: 200, ready: 9})
	if e, ok := tb.Get(42); !ok || e.base != 100 || e.ready != 7 {
		t.Fatalf("Get(42) = (%+v,%v)", e, ok)
	}
	tb.Put(42, entry{base: 101, ready: 8})
	if e, _ := tb.Get(42); e.base != 101 || e.ready != 8 {
		t.Fatalf("overwrite lost: %+v", e)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (overwrite must not double-count)", tb.Len())
	}
	// Key 0 is legal (stored as key+1 internally).
	tb.Put(0, entry{base: 1, ready: 1})
	if e, ok := tb.Get(0); !ok || e.base != 1 {
		t.Fatalf("key 0: (%+v,%v)", e, ok)
	}
}

// Colliding keys (same hash bucket under linear probing) must all stay
// retrievable; deliberately insert many more entries than the initial
// sizing to force at least one grow.
func TestTableProbingAndGrow(t *testing.T) {
	tb := New[entry](8)
	const n = 500
	for i := uint64(0); i < n; i++ {
		tb.Put(i, entry{base: i * 10, ready: int64(i)})
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	if tb.Cap() < 4*n/3 {
		t.Fatalf("Cap = %d holds %d entries past 3/4 load", tb.Cap(), n)
	}
	for i := uint64(0); i < n; i++ {
		e, ok := tb.Get(i)
		if !ok || e.base != i*10 || e.ready != int64(i) {
			t.Fatalf("Get(%d) = (%+v,%v)", i, e, ok)
		}
	}
	if _, ok := tb.Get(n + 1); ok {
		t.Fatal("absent key found after grow")
	}
}

// homeOf returns the first n keys from start whose home slot in tb is
// slot.
func homeOf(tb *Table[entry], slot uint64, start uint64, n int) []uint64 {
	var out []uint64
	for k := start; len(out) < n; k++ {
		if tb.idx(k) == slot {
			out = append(out, k)
		}
	}
	return out
}

// TestTableDeleteWrapsAndGrows: a probe run that wraps past the last
// slot closes up when its first entry is deleted — entries homed at the
// last slot move back across the wrap, an entry homed at slot 0 moves
// only as far as its home — and the table then regrows intact.
func TestTableDeleteWrapsAndGrows(t *testing.T) {
	tb := New[entry](4) // 8 slots
	last := uint64(tb.Cap() - 1)
	tail := homeOf(&tb, last, 1, 3) // run: slots 7, 0, ...
	head := homeOf(&tb, 0, 1, 1)[0] // homed at slot 0, displaced
	keys := []uint64{tail[0], tail[1], head, tail[2]}
	for i, k := range keys {
		tb.Put(k, entry{base: k, ready: int64(i)})
	}
	if !tb.Delete(tail[0]) || tb.Delete(tail[0]) {
		t.Fatal("Delete of a present key must report true once, then false")
	}
	if tb.Len() != 3 {
		t.Fatalf("Len = %d after delete, want 3", tb.Len())
	}
	want := map[uint64]bool{tail[1]: true, head: true, tail[2]: true}
	tb.Each(func(k uint64, e entry) {
		if !want[k] || e.base != k {
			t.Fatalf("Each visited (%d, %+v)", k, e)
		}
		delete(want, k)
	})
	if len(want) != 0 {
		t.Fatalf("Each missed %v", want)
	}
	if s := tb.slots[last]; s.key != tail[1]+1 {
		t.Fatalf("slot %d holds key %d, want %d moved back across the wrap", last, s.key-1, tail[1])
	}
	if s := tb.slots[0]; s.key != head+1 {
		t.Fatalf("slot 0 holds key %d, want %d (its home)", s.key-1, head)
	}
	for i := uint64(100); i < 200; i++ {
		tb.Put(i, entry{base: i})
		if i%3 == 0 {
			tb.Delete(i)
		}
	}
	for _, k := range []uint64{tail[1], head, tail[2]} {
		if e, ok := tb.Get(k); !ok || e.base != k {
			t.Fatalf("Get(%d) after growth = (%+v,%v)", k, e, ok)
		}
	}
	for i := uint64(100); i < 200; i++ {
		if _, ok := tb.Get(i); ok != (i%3 != 0) {
			t.Fatalf("Get(%d) after growth = %v", i, ok)
		}
	}
	if tb.Len() != 3+67 {
		t.Fatalf("Len = %d, want %d", tb.Len(), 3+67)
	}
}

// TestTableDeleteRefAllocFree: deleting, and updating in place through
// Ref, allocate nothing.
func TestTableDeleteRefAllocFree(t *testing.T) {
	tb := New[entry](64)
	for i := uint64(0); i < 48; i++ {
		tb.Put(i, entry{base: i})
	}
	k := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		tb.Delete(k % 48)
		tb.Put(k%48, entry{base: k})
		if r := tb.Ref((k + 1) % 48); r != nil {
			r.ready++
		}
		k++
	})
	if allocs != 0 {
		t.Fatalf("Delete/Put/Ref allocated %.1f times per run", allocs)
	}
}

func TestTableFilter(t *testing.T) {
	tb := New[entry](16)
	for i := uint64(0); i < 20; i++ {
		tb.Put(i, entry{base: i, ready: int64(i)})
	}
	above := func(floor int64) func(uint64, entry) bool {
		return func(_ uint64, e entry) bool { return e.ready > floor }
	}
	tb.Filter(above(9))
	if tb.Len() != 10 {
		t.Fatalf("survivors = %d, want 10", tb.Len())
	}
	for i := uint64(0); i < 20; i++ {
		_, ok := tb.Get(i)
		if want := i >= 10; ok != want {
			t.Fatalf("after Filter, Get(%d) = %v, want %v", i, ok, want)
		}
	}
	// Survivors must remain updatable and a second filter repeatable.
	tb.Put(15, entry{base: 99, ready: 50})
	tb.Filter(above(19))
	if tb.Len() != 1 {
		t.Fatalf("after second Filter Len = %d, want 1", tb.Len())
	}
	if e, ok := tb.Get(15); !ok || e.base != 99 {
		t.Fatalf("survivor lost: (%+v,%v)", e, ok)
	}
}

// New(c/2) rebuilds a table of exactly c slots, the capacity a decoder
// must reproduce.
func TestNewCapacity(t *testing.T) {
	for c := 8; c <= 1<<16; c <<= 1 {
		tb := New[entry](c / 2)
		if got := tb.Cap(); got != c {
			t.Fatalf("New(%d).Cap() = %d, want %d", c/2, got, c)
		}
	}
}

type testPage [4]uint64

func TestPagesEnsureMaterializesOneZeroPage(t *testing.T) {
	p := NewPages[testPage](0)
	if p.Get(5) != nil {
		t.Fatal("Get on an empty table returned a page")
	}
	pg := p.Ensure(5)
	if pg == nil || *pg != (testPage{}) {
		t.Fatalf("Ensure returned %v, want a zero page", pg)
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d after one Ensure, want 1", p.Len())
	}
	pg[0] = 7
	if again := p.Ensure(5); again != pg || p.Len() != 1 {
		t.Fatalf("second Ensure returned %p (want %p), Len %d", again, pg, p.Len())
	}
	if p.Get(6) != nil || p.Len() != 1 {
		t.Fatalf("Get of an absent page materialized one: Len %d", p.Len())
	}
}

// A page resolves to the same pointer through every level of the
// front: the MRU entry, the victim file and the table probe.
func TestPagesFrontReturnsOnePointer(t *testing.T) {
	p := NewPages[testPage](0)
	pages := map[uint64]*testPage{}
	for k := uint64(1); k <= 4; k++ {
		pages[k] = p.Ensure(k)
	}
	// Front after 1..4: MRU 4, victims 3 and 2; page 1 only in the table.
	if p.mru != pages[4] {
		t.Fatal("the last page ensured is not the MRU")
	}
	if got := p.Get(4); got != pages[4] {
		t.Fatal("MRU hit returned another pointer")
	}
	if p.vic[0] != pages[3] && p.vic[1] != pages[3] {
		t.Fatal("page 3 is not in the victim file")
	}
	if got := p.Get(3); got != pages[3] || p.mru != pages[3] {
		t.Fatal("victim hit returned another pointer or was not promoted")
	}
	for _, v := range p.vic {
		if v == pages[1] {
			t.Fatal("page 1 still in the victim file")
		}
	}
	if got := p.Get(1); got != pages[1] || p.mru != pages[1] {
		t.Fatal("probe hit returned another pointer or was not promoted")
	}
	for k, want := range pages {
		if got := p.Get(k); got != want {
			t.Fatalf("Get(%d) = %p, want %p", k, got, want)
		}
	}
}

// Put stores the page it is given, not a copy, so pages allocated
// together back the table, and reading the table through Each and Len
// leaves its front untouched.
func TestPagesPutStoresPointer(t *testing.T) {
	backing := make([]testPage, 40)
	p := NewPages[testPage](len(backing))
	for k := range backing {
		backing[k][1] = uint64(k) + 100
		p.Put(uint64(k)*3, &backing[k])
	}
	p.Get(9)
	front := [3]*testPage{p.mru, p.vic[0], p.vic[1]}
	n := 0
	p.Each(func(k uint64, pg *testPage) {
		n++
		if pg != &backing[k/3] {
			t.Fatalf("Each(%d) gave %p, want the page Put stored", k, pg)
		}
	})
	if n != len(backing) || p.Len() != len(backing) {
		t.Fatalf("Each visited %d, Len %d, want %d", n, p.Len(), len(backing))
	}
	if front != [3]*testPage{p.mru, p.vic[0], p.vic[1]} {
		t.Fatal("Each or Len wrote the front")
	}
	for k := range backing {
		if got := p.Get(uint64(k) * 3); got != &backing[k] || got[1] != uint64(k)+100 {
			t.Fatalf("Get(%d) = %p, want %p", k*3, got, &backing[k])
		}
	}
	if p.Ensure(3) != &backing[1] {
		t.Fatal("Ensure materialized a page over one Put stored")
	}
}

// Get and Ensure of pages that exist allocate nothing, on every level
// of the front.
func TestPagesLookupAllocatesNothing(t *testing.T) {
	p := NewPages[testPage](0)
	for k := uint64(0); k < 64; k++ {
		p.Ensure(k)
	}
	var sink *testPage
	allocs := testing.AllocsPerRun(100, func() {
		for k := uint64(0); k < 64; k++ {
			sink = p.Get(k)
			sink = p.Ensure(k)
			sink = p.Get(k ^ 1)
		}
	})
	if allocs != 0 {
		t.Fatalf("Get/Ensure of existing pages: %v allocs per run, want 0", allocs)
	}
	_ = sink
}
