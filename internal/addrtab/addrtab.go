// Package addrtab is the simulator's one address-keyed table, with no
// Go map on its lookup path. Guest pages (internal/mem), the heat map's
// word index (internal/obs) and the pointer-provenance window
// (internal/sim) sit on it; what they encode and decide depends only on
// the entries a table holds, never on its slot layout.
package addrtab

// Table maps uint64 keys below 1<<64-1 to values by open addressing:
// linear probing from a Fibonacci hash, doubling past 3/4 load. A
// linear-probe table cannot delete in place without breaking probe
// chains, so Filter drops entries in bulk and rehashes the survivors.
// Build one with New. Len, Cap, Get, Each and Clone only read it.
type Table[V any] struct {
	slots   []slot[V]
	scratch []slot[V] // Filter's survivors, reused so sweeps allocate nothing
	n       int
	mask    uint64
	shift   uint
}

// slot stores key+1 so the zero value marks an empty slot.
type slot[V any] struct {
	key uint64
	val V
}

// New returns a table of the smallest power-of-two capacity, at least
// 8, that holds n entries at no more than half load. New(c/2) for such
// a capacity c therefore rebuilds a table of exactly c slots.
func New[V any](n int) Table[V] {
	c := 8
	for c < 2*n {
		c <<= 1
	}
	shift := uint(64)
	for s := c; s > 1; s >>= 1 {
		shift--
	}
	return Table[V]{slots: make([]slot[V], c), mask: uint64(c - 1), shift: shift}
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return t.n }

// Cap returns the number of slots.
func (t *Table[V]) Cap() int { return len(t.slots) }

// idx is the Fibonacci hash of k: the top bits of k times 2^64/φ.
func (t *Table[V]) idx(k uint64) uint64 { return (k * 0x9E3779B97F4A7C15) >> t.shift }

// Get returns the value stored under k.
func (t *Table[V]) Get(k uint64) (V, bool) {
	for i := t.idx(k); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.key == 0 {
			var zero V
			return zero, false
		}
		if s.key == k+1 {
			return s.val, true
		}
	}
}

// Put inserts or overwrites the value under k.
func (t *Table[V]) Put(k uint64, v V) {
	if 4*(t.n+1) > 3*len(t.slots) {
		old := t.slots
		*t = New[V](len(old))
		for _, s := range old {
			if s.key != 0 {
				t.Put(s.key-1, s.val)
			}
		}
	}
	for i := t.idx(k); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.key == 0 {
			s.key, s.val = k+1, v
			t.n++
			return
		}
		if s.key == k+1 {
			s.val = v
			return
		}
	}
}

// Filter deletes every entry keep rejects, rehashing the survivors.
func (t *Table[V]) Filter(keep func(k uint64, v V) bool) {
	surv := t.scratch[:0]
	for i := range t.slots {
		if s := t.slots[i]; s.key != 0 && keep(s.key-1, s.val) {
			surv = append(surv, s)
		}
		t.slots[i] = slot[V]{}
	}
	t.n = 0
	for _, s := range surv {
		t.Put(s.key-1, s.val)
	}
	t.scratch = surv[:0]
}

// Each calls f once for every entry, in slot order.
func (t *Table[V]) Each(f func(k uint64, v V)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.key != 0 {
			f(s.key-1, s.val)
		}
	}
}

// Clone returns an independent copy of the same capacity; values are
// copied by assignment.
func (t *Table[V]) Clone() Table[V] {
	return Table[V]{slots: append([]slot[V](nil), t.slots...), n: t.n, mask: t.mask, shift: t.shift}
}

// Pages is a Table of pages that are never removed, fronted by the page
// looked up last (the MRU) and a two-entry victim file of the pages it
// displaced most recently, so the simulator's runs of accesses to one
// page, or alternating between a few, resolve without a probe. The
// front holds only materialized pages and pages are never removed, so
// an entry cannot go stale. Get and Ensure write the front; Len, Each
// and Clone do not, so a Pages read only through them may be shared
// between goroutines. Build one with NewPages.
type Pages[P any] struct {
	tab    Table[*P]
	mruKey uint64
	mru    *P
	vicKey [2]uint64
	vic    [2]*P
	vicPtr uint8
}

// NewPages returns an empty page table sized for n pages.
func NewPages[P any](n int) Pages[P] { return Pages[P]{tab: New[*P](n)} }

// Get returns the page under key, or nil if none was materialized.
func (p *Pages[P]) Get(key uint64) *P {
	if key == p.mruKey && p.mru != nil {
		return p.mru
	}
	return p.getSlow(key)
}

// getSlow probes the victim file, then the table, promoting any hit to
// MRU.
func (p *Pages[P]) getSlow(key uint64) *P {
	for i := range p.vic {
		if p.vicKey[i] == key && p.vic[i] != nil {
			// Swap with the MRU slot so neither entry is lost.
			pg := p.vic[i]
			p.vic[i], p.vicKey[i] = p.mru, p.mruKey
			p.mru, p.mruKey = pg, key
			return pg
		}
	}
	pg, _ := p.tab.Get(key)
	if pg != nil {
		p.install(key, pg)
	}
	return pg
}

// install makes (key, pg) the MRU entry, demoting the previous MRU page
// into the victim file.
func (p *Pages[P]) install(key uint64, pg *P) {
	if p.mru != nil {
		p.vic[p.vicPtr], p.vicKey[p.vicPtr] = p.mru, p.mruKey
		p.vicPtr ^= 1
	}
	p.mru, p.mruKey = pg, key
}

// Ensure returns the page under key, materializing a zero page first if
// there is none.
func (p *Pages[P]) Ensure(key uint64) *P {
	if pg := p.Get(key); pg != nil {
		return pg
	}
	pg := new(P)
	p.tab.Put(key, pg)
	p.install(key, pg)
	return pg
}

// Len returns the number of materialized pages.
func (p *Pages[P]) Len() int { return p.tab.Len() }

// Each calls f once for every page, in no particular order.
func (p *Pages[P]) Each(f func(key uint64, pg *P)) { p.tab.Each(f) }

// Clone returns a deep copy with an empty front. The pages are copied
// by value into one backing array, so P must hold no pointers.
func (p *Pages[P]) Clone() Pages[P] {
	c := Pages[P]{tab: p.tab.Clone()}
	pages := make([]P, 0, c.tab.n)
	for i := range c.tab.slots {
		if s := &c.tab.slots[i]; s.key != 0 {
			pages = append(pages, *s.val)
			s.val = &pages[len(pages)-1]
		}
	}
	return c
}
