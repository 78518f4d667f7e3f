package cache

import "testing"

var benchReady int64

func BenchmarkAccessL1Hit(b *testing.B) {
	l1, _, _ := testHierarchy(32)
	now, _ := l1.Access(0x1000, Load, 0) // warm the line
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now, _ = l1.Access(0x1000|uint64(i&0x18), Load, now)
	}
	benchReady = now
}

func BenchmarkAccessL1StoreHit(b *testing.B) {
	l1, _, _ := testHierarchy(32)
	now, _ := l1.Access(0x1000, Store, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now, _ = l1.Access(0x1000|uint64(i&0x18), Store, now)
	}
	benchReady = now
}

func BenchmarkAccessMissStream(b *testing.B) {
	l1, _, _ := testHierarchy(32)
	b.ReportAllocs()
	b.ResetTimer()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		// Stride one line; the footprint wraps far outside L2 so the
		// stream keeps missing.
		now, _ = l1.Access(uint64(i%(1<<16))*32, Load, now)
	}
	benchReady = now
}

// A cache hit is the per-reference common case; it must not allocate.
func TestAccessHitZeroAlloc(t *testing.T) {
	l1, _, _ := testHierarchy(32)
	now, _ := l1.Access(0x1000, Load, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		now, _ = l1.Access(0x1000, Load, now)
	})
	benchReady = now
	if allocs != 0 {
		t.Fatalf("hit-path Access allocated %.1f times per run, want 0", allocs)
	}
}

// A demand miss that walks L1, L2 and main memory (victim choice,
// writebacks, MSHR allocation) must not allocate either.
func TestAccessMissToMemoryZeroAlloc(t *testing.T) {
	l1, l2, _ := testHierarchy(32)
	now, i := int64(0), uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		now, _ = l1.Access(i*32, Store, now) // a fresh line each time: misses at both levels
	})
	benchReady = now
	if allocs != 0 {
		t.Fatalf("miss-path Access allocated %.1f times per run, want 0", allocs)
	}
	if l2.Stats.FullMisses[Load] < 1000 {
		t.Fatalf("L2 full misses = %d, want every access to reach memory", l2.Stats.FullMisses[Load])
	}
}
