package sim

import (
	"testing"

	"memfwd/internal/mem"
)

// End-to-end per-access benchmarks: one Machine.Load/Store including
// forwarding resolution, pipeline accounting, and the cache walk. These
// are the units BenchmarkFigure5 (repo root) executes billions of.

var benchVal uint64

func benchMachine() (*Machine, mem.Addr) {
	m := newM()
	a := m.Malloc(4096)
	m.StoreWord(a, 7)
	return m, a
}

func BenchmarkLoadL1Hit(b *testing.B) {
	m, a := benchMachine()
	m.LoadWord(a) // warm line and scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchVal += m.LoadWord(a)
	}
}

func BenchmarkStoreL1Hit(b *testing.B) {
	m, a := benchMachine()
	m.StoreWord(a, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.StoreWord(a, uint64(i))
	}
}

func BenchmarkLoadForwarded1Hop(b *testing.B) {
	m, _ := benchMachine()
	src := m.Malloc(16)
	tgt := m.Malloc(16)
	m.StoreWord(src, 9)
	relocateRaw(m, src, tgt, 2)
	m.LoadWord(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchVal += m.LoadWord(src)
	}
}

func BenchmarkInst(b *testing.B) {
	m, _ := benchMachine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Inst(1)
	}
}

// The guards below are the ISSUE's zero-allocation acceptance criteria,
// run as ordinary tests so CI enforces them: an L1-hit load/store and a
// forwarded access below the hop limit must not allocate.

func TestLoadHitZeroAlloc(t *testing.T) {
	m, a := benchMachine()
	for i := 0; i < 100; i++ {
		m.LoadWord(a)
		m.Inst(1)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		benchVal += m.LoadWord(a)
	})
	if allocs != 0 {
		t.Fatalf("L1-hit load allocated %.1f times per run, want 0", allocs)
	}
}

func TestStoreHitZeroAlloc(t *testing.T) {
	m, a := benchMachine()
	for i := 0; i < 100; i++ {
		m.StoreWord(a, uint64(i))
		m.Inst(1)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m.StoreWord(a, 3)
	})
	if allocs != 0 {
		t.Fatalf("L1-hit store allocated %.1f times per run, want 0", allocs)
	}
}

func TestForwardedLoadZeroAlloc(t *testing.T) {
	m, _ := benchMachine()
	src := m.Malloc(16)
	tgt := m.Malloc(16)
	m.StoreWord(src, 9)
	relocateRaw(m, src, tgt, 2)
	for i := 0; i < 100; i++ {
		m.LoadWord(src)
		m.Inst(1)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		benchVal += m.LoadWord(src)
	})
	if allocs != 0 {
		t.Fatalf("forwarded load allocated %.1f times per run, want 0", allocs)
	}
}

// Inst(12) is malloc's and free's charge and the trap entry cost; the
// fused loop must not allocate, including on the calls whose twelve
// instructions cross a mispredict (every fourth call here).
func TestInstAcrossMispredictZeroAlloc(t *testing.T) {
	m, _ := benchMachine()
	m.mispredictCtr = 5
	allocs := testing.AllocsPerRun(1000, func() {
		m.Inst(12)
	})
	if allocs != 0 {
		t.Fatalf("Inst(12) allocated %.1f times per run, want 0", allocs)
	}
}
