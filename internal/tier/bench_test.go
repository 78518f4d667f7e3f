package tier

import (
	"testing"

	"memfwd/internal/mem"
	"memfwd/internal/opt"
	"memfwd/internal/sim"
)

// BenchmarkDaemonInterception is the steady-state tax: one guest load
// routed through the daemon with the wake countdown never expiring.
// This is the number every intercepted operation pays between wakes,
// so it is alloc-gated like the machine's own hot paths.
func BenchmarkDaemonInterception(b *testing.B) {
	tc := mem.DefaultTierConfig(2, 70)
	m := sim.New(sim.Config{Tiers: tc})
	d := New(m, Config{Tiers: tc, Seed: 1, Every: 1 << 30})
	a := d.Malloc(4096)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += d.LoadWord(a)
	}
	_ = sink
}

// BenchmarkDaemonWake is one full policy pass over a populated heap:
// the live-set visit, heat ranking and candidate selection. All 256
// blocks fit the near budget, so no wake migrates and every iteration
// is the steady state; TestDaemonWakeSteadyStateZeroAlloc pins its
// zero allocations on a heap that has seen spills and demotions.
func BenchmarkDaemonWake(b *testing.B) {
	tc := mem.DefaultTierConfig(2, 70)
	m := sim.New(sim.Config{Tiers: tc})
	d := New(m, Config{Tiers: tc, Seed: 2, Every: 1 << 30, FastFrac: 0.25, MaxMoves: 8})
	for i := 0; i < 256; i++ {
		a := d.Malloc(256)
		for j := 0; j <= i%16; j++ {
			d.StoreWord(a, uint64(j))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.wake()
	}
}

// TestDaemonWakeSteadyStateZeroAlloc: a wake updates its per-block
// records in place and reuses its candidate buffers, so once a first
// wake has met every block, a wake that migrates nothing allocates
// nothing. The daemon carries every kind of record: near-placed,
// spilled and demoted blocks, and one freed behind its back.
func TestDaemonWakeSteadyStateZeroAlloc(t *testing.T) {
	tc := mem.DefaultTierConfig(2, 70)
	m := sim.New(sim.Config{Tiers: tc})
	d := New(m, Config{Tiers: tc, Seed: 4, Every: 128, MinBudget: 16 << 10})
	var blocks []mem.Addr
	for i := 0; i < 256; i++ {
		a := d.Malloc(256)
		d.StoreWord(a, uint64(i))
		blocks = append(blocks, a)
	}
	for i := 0; i < 1<<15; i++ {
		d.LoadWord(blocks[i%8])
		if i%256 == 0 {
			d.Malloc(64) // spill pressure, so idle blocks get demoted
		}
	}
	m.Allocator().Free(blocks[200]) // untimed: the next wake drops its record
	d.wake()
	st := d.Stats()
	if st.Demotions == 0 || st.Spills == 0 {
		t.Fatalf("setup reached no demotion or spill: %+v", st)
	}
	allocs := testing.AllocsPerRun(100, d.wake)
	if after := d.Stats(); after.Demotions != st.Demotions || after.Promotions != st.Promotions {
		t.Fatalf("measured wakes migrated: %+v", after)
	}
	if allocs != 0 {
		t.Fatalf("steady-state wake allocated %.1f times, want 0", allocs)
	}
}

// BenchmarkDaemonMigrate is the cost of one demotion through the
// production two-phase commit, per 256-byte object.
func BenchmarkDaemonMigrate(b *testing.B) {
	// A wider-than-default far window: the benchmark never reuses
	// target space, and b.N objects must all fit. MinBudget is huge so
	// every object is born near and the timed move is a real demotion.
	tc := &mem.TierConfig{Latencies: []int64{70, 210}, Capacities: []uint64{1 << 32, 1 << 32}}
	m := sim.New(sim.Config{Tiers: tc})
	d := New(m, Config{Tiers: tc, Seed: 3, Every: 1 << 30, MinBudget: 1 << 38})
	objs := make([]mem.Addr, b.N)
	for i := range objs {
		objs[i] = d.Malloc(256)
		d.StoreWord(objs[i], uint64(i))
	}
	slow := d.Tiers().Slowest()
	ctx := opt.MachineContext(d.Machine)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !d.migrate(ctx, objs[i], 256, slow) {
			b.Fatal("far window exhausted")
		}
	}
	b.StopTimer()
	if d.Stats().Demotions != uint64(b.N) {
		b.Fatalf("demotions %d, want %d", d.Stats().Demotions, b.N)
	}
}
