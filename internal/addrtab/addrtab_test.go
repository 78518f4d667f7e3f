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

// A Clone shares no page with its source, starts with an empty front,
// and reading the source through Clone, Each and Len leaves its front
// untouched.
func TestPagesCloneIsDeep(t *testing.T) {
	p := NewPages[testPage](0)
	for k := uint64(0); k < 40; k++ {
		p.Ensure(k * 3)[1] = k + 100
	}
	p.Get(9)
	front := [3]*testPage{p.mru, p.vic[0], p.vic[1]}
	c := p.Clone()
	n := 0
	p.Each(func(uint64, *testPage) { n++ })
	if n != p.Len() || c.Len() != p.Len() {
		t.Fatalf("Each visited %d, clone Len %d, source Len %d", n, c.Len(), p.Len())
	}
	if front != [3]*testPage{p.mru, p.vic[0], p.vic[1]} {
		t.Fatal("Clone, Each or Len wrote the source's front")
	}
	if c.mru != nil || c.vic != [2]*testPage{} {
		t.Fatal("clone does not start with an empty front")
	}
	p.Each(func(k uint64, src *testPage) {
		dst := c.Get(k)
		if dst == src {
			t.Fatalf("page %d shared between clone and source", k)
		}
		if *dst != *src {
			t.Fatalf("page %d: clone %v, source %v", k, *dst, *src)
		}
		dst[1]++
		if src[1] == dst[1] {
			t.Fatalf("write to the clone's page %d reached the source", k)
		}
	})
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
