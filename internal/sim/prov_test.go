package sim

import (
	"testing"

	"memfwd/internal/addrtab"
	"memfwd/internal/mem"
)

// The provenance table must stay bounded over a run that produces far
// more distinct pointer values than provLimit: the clock sweep evicts
// entries the dispatch stream has passed.
func TestProvEvictionBoundsTable(t *testing.T) {
	m := newM()
	cells := m.Malloc(8)
	total := 3*m.provLimit + 100
	for i := 0; i < total; i++ {
		// Store a fresh plausible heap-pointer value, then load it back:
		// the 8-byte load records provenance for a distinct key each time
		// (keys are value>>8, so stride by 256).
		p := m.cfg.HeapBase + mem.Addr(1<<20) + mem.Addr(i*256)
		m.StoreWord(cells, uint64(p))
		m.LoadWord(cells)
		m.Inst(3)
	}
	if m.ptrProv.Len() > m.provLimit {
		t.Fatalf("provenance table at %d entries exceeds limit %d", m.ptrProv.Len(), m.provLimit)
	}
	if m.ptrProv.Len() == 0 {
		t.Fatal("provenance table empty: recordPtr never ran")
	}
	// The table's backing array must not have grown past its initial
	// sizing — the sweep, not the resize, is what bounds it.
	if want := addrtab.New[ptrEntry](m.provLimit); m.ptrProv.Cap() > want.Cap() {
		t.Fatalf("table grew to %d slots despite sweeps (initial %d)",
			m.ptrProv.Cap(), want.Cap())
	}
}

// Provenance must still serialize pointer chasing inside the in-flight
// window: traversing a linked chain (each address loaded from memory)
// must take longer than loading the same nodes at addresses known up
// front, even after many sweeps have run.
func TestProvSerializationSurvivesEviction(t *testing.T) {
	const nodes = 6000 // > provLimit, so clock sweeps run mid-traversal
	build := func(m *Machine, pointers bool) []mem.Addr {
		addrs := make([]mem.Addr, nodes)
		for i := range addrs {
			addrs[i] = m.Malloc(64) // spread nodes across cache lines
		}
		for i := 0; i < nodes-1; i++ {
			if pointers {
				m.Mem.WriteWord(addrs[i], uint64(addrs[i+1]))
			} else {
				// Same layout and access order below, but the loaded
				// values are not heap pointers, so no provenance is
				// recorded and the loads may overlap.
				m.Mem.WriteWord(addrs[i], uint64(i+1))
			}
		}
		return addrs
	}
	chase := func() int64 {
		m := newM()
		addrs := build(m, true)
		p := addrs[0]
		for p != 0 && p != addrs[nodes-1] {
			p = mem.Addr(m.LoadWord(p))
		}
		return m.Finalize().Cycles
	}
	sweep := func() int64 {
		m := newM()
		addrs := build(m, false)
		for _, a := range addrs[:nodes-1] {
			m.LoadWord(a)
		}
		return m.Finalize().Cycles
	}
	c, s := chase(), sweep()
	if c <= s {
		t.Fatalf("pointer chase (%d cycles) should be slower than the same loads without provenance (%d): serialization lost", c, s)
	}
}
