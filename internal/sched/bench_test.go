package sched_test

import (
	"testing"

	"memfwd/internal/mem"
	"memfwd/internal/oracle"
	"memfwd/internal/sched"
	"memfwd/internal/sim"
)

// BenchmarkGroupTransparent is the single-hart tax: a guest load
// routed through a harts=1 group, which schedules nothing. This is
// the overhead every existing configuration pays for the multi-hart
// machinery merely existing, so it is alloc-gated at zero.
func BenchmarkGroupTransparent(b *testing.B) {
	m := oracle.New(oracle.Config{})
	g, err := sched.New(m, sched.Config{Harts: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	a := g.Malloc(4096)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += g.LoadWord(a)
	}
	_ = sink
}

// BenchmarkGroupPoint is the steady-state multi-hart tax: one guest
// load through a harts=4 group whose launch countdown never expires —
// the per-operation scheduling-point cost with no job in flight.
func BenchmarkGroupPoint(b *testing.B) {
	m := oracle.New(oracle.Config{})
	g, err := sched.New(m, sched.Config{Harts: 4, Seed: 1, Interval: 1 << 28})
	if err != nil {
		b.Fatal(err)
	}
	a := g.Malloc(4096)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += g.LoadWord(a)
	}
	_ = sink
}

// BenchmarkGroupContendedRun is a whole contended workload per
// iteration: a guest allocating, mutating, and reading 64 blocks on
// the timing simulator while three relocator harts race it at an
// aggressive launch interval, then a quiesce committing whatever is
// still in flight. This is the end-to-end price of concurrent
// relocation, pipelines and caches included.
func BenchmarkGroupContendedRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := sim.New(sim.Config{Harts: 4})
		g, err := sched.New(m, sched.Config{Harts: 4, Seed: int64(i) + 1, Interval: 4})
		if err != nil {
			b.Fatal(err)
		}
		blocks := make([]mem.Addr, 0, 64)
		for j := 0; j < 64; j++ {
			blocks = append(blocks, g.Malloc(256))
		}
		var sink uint64
		for j := 0; j < 4096; j++ {
			a := blocks[j%len(blocks)]
			g.StoreWord(a+mem.Addr(j%32)*8, uint64(j))
			sink += g.LoadWord(a + mem.Addr(j/2%32)*8)
		}
		g.Quiesce()
		if g.Stats().Relocations == 0 {
			b.Fatal("no relocations committed; benchmark is vacuous")
		}
		_ = sink
	}
}
