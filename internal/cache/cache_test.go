package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"memfwd/internal/quickseed"
	"memfwd/internal/wire"
)

// testHierarchy builds a small L1 -> L2 -> memory stack with easily
// checked latencies.
func testHierarchy(lineSize int) (*Cache, *Cache, *MainMemory) {
	mm := NewMainMemory(70, 8, lineSize)
	l2 := New(Config{
		Name: "L2", SizeBytes: 16 * 1024, LineSize: lineSize, Assoc: 4,
		HitLatency: 10, MSHRs: 8, TransferBytesPerCycle: 16,
	}, nil, mm)
	l1 := New(Config{
		Name: "L1", SizeBytes: 1024, LineSize: lineSize, Assoc: 2,
		HitLatency: 1, MSHRs: 4, TransferBytesPerCycle: 16,
	}, l2, nil)
	return l1, l2, mm
}

func TestColdMissThenHit(t *testing.T) {
	l1, l2, _ := testHierarchy(32)
	ready, out := l1.Access(0x1000, Load, 0)
	if out != FullMiss {
		t.Fatalf("first access outcome %v", out)
	}
	if ready <= 70 {
		t.Fatalf("cold miss too fast: ready at %d", ready)
	}
	// A later access to the same line hits in one cycle.
	ready2, out2 := l1.Access(0x1008, Load, ready)
	if out2 != Hit || ready2 != ready+1 {
		t.Fatalf("got (%d,%v), want hit at +1", ready2, out2)
	}
	if l2.Stats.FullMisses[Load] != 1 {
		t.Fatalf("L2 full misses = %d", l2.Stats.FullMisses[Load])
	}
}

func TestPartialMissCombines(t *testing.T) {
	l1, _, _ := testHierarchy(32)
	ready1, out1 := l1.Access(0x2000, Load, 0)
	if out1 != FullMiss {
		t.Fatal("expected full miss")
	}
	// Second access to the same line while the fill is outstanding.
	ready2, out2 := l1.Access(0x2010, Load, 5)
	if out2 != PartialMiss {
		t.Fatalf("outcome %v, want partial", out2)
	}
	if ready2 != ready1 {
		t.Fatalf("partial miss ready %d, want to share fill completion %d", ready2, ready1)
	}
	if l1.Stats.PartialMisses[Load] != 1 || l1.Stats.FullMisses[Load] != 1 {
		t.Fatalf("stats: %+v", l1.Stats)
	}
}

func TestDistinctLinesAreFullMisses(t *testing.T) {
	l1, _, _ := testHierarchy(32)
	_, out1 := l1.Access(0x2000, Load, 0)
	_, out2 := l1.Access(0x2020, Load, 0)
	if out1 != FullMiss || out2 != FullMiss {
		t.Fatalf("outcomes %v %v", out1, out2)
	}
}

func TestLRUEviction(t *testing.T) {
	l1, _, _ := testHierarchy(32)
	// L1: 1024 B, 32 B lines, 2-way => 16 sets. Three lines mapping to
	// the same set: stride = 16 sets * 32 B = 512 B.
	a, b, c := uint64(0x0), uint64(0x200), uint64(0x400)
	now := int64(0)
	now, _ = l1.Access(a, Load, now)
	now, _ = l1.Access(b, Load, now)
	now, _ = l1.Access(a, Load, now) // touch a: b becomes LRU
	now, _ = l1.Access(c, Load, now) // evicts b
	_, outA := l1.Access(a, Load, now)
	if outA != Hit {
		t.Fatalf("a should still hit, got %v", outA)
	}
	_, outB := l1.Access(b, Load, now+100)
	if outB != FullMiss {
		t.Fatalf("b should have been evicted, got %v", outB)
	}
}

func TestWriteBackOnDirtyEviction(t *testing.T) {
	l1, _, _ := testHierarchy(32)
	now := int64(0)
	now, _ = l1.Access(0x0, Store, now) // dirty
	now, _ = l1.Access(0x200, Load, now)
	now, _ = l1.Access(0x400, Load, now) // evicts 0x0 (dirty)
	_ = now
	if l1.Stats.WriteBacks != 1 {
		t.Fatalf("writebacks = %d, want 1", l1.Stats.WriteBacks)
	}
	if l1.Stats.BytesToNext != 32 {
		t.Fatalf("bytes to next = %d, want 32", l1.Stats.BytesToNext)
	}
}

func TestCleanEvictionNoWriteBack(t *testing.T) {
	l1, _, _ := testHierarchy(32)
	now := int64(0)
	now, _ = l1.Access(0x0, Load, now)
	now, _ = l1.Access(0x200, Load, now)
	now, _ = l1.Access(0x400, Load, now)
	_ = now
	if l1.Stats.WriteBacks != 0 {
		t.Fatalf("writebacks = %d, want 0", l1.Stats.WriteBacks)
	}
}

func TestBandwidthConservation(t *testing.T) {
	// Every fill moves exactly one line; bandwidth counters must equal
	// (fills + writebacks) * lineSize at each level.
	for _, lineSize := range []int{32, 64, 128} {
		l1, l2, mm := testHierarchy(lineSize)
		now := int64(0)
		for i := 0; i < 500; i++ {
			a := uint64((i * 97) % 8192 * 8)
			kind := Load
			if i%3 == 0 {
				kind = Store
			}
			r, _ := l1.Access(a, kind, now)
			now = r
		}
		fills := l1.Stats.FullMisses[Load] + l1.Stats.FullMisses[Store] + l1.Stats.FullMisses[Prefetch]
		wantFrom := fills * uint64(lineSize)
		if l1.Stats.BytesFromNext != wantFrom {
			t.Fatalf("line=%d: L1 BytesFromNext=%d want %d", lineSize, l1.Stats.BytesFromNext, wantFrom)
		}
		if l1.Stats.BytesToNext != l1.Stats.WriteBacks*uint64(lineSize) {
			t.Fatalf("line=%d: L1 BytesToNext=%d writebacks=%d", lineSize, l1.Stats.BytesToNext, l1.Stats.WriteBacks)
		}
		l2Fills := l2.Stats.FullMisses[Load] + l2.Stats.FullMisses[Store]
		if l2.Stats.BytesFromNext != l2Fills*uint64(lineSize) {
			t.Fatalf("line=%d: L2 fill bytes mismatch", lineSize)
		}
		if mm.BytesRead != l2.Stats.BytesFromNext {
			t.Fatalf("line=%d: memory read %d != L2 fill %d", lineSize, mm.BytesRead, l2.Stats.BytesFromNext)
		}
	}
}

func TestOutcomesPartitionAccesses(t *testing.T) {
	l1, _, _ := testHierarchy(64)
	now := int64(0)
	const n = 2000
	for i := 0; i < n; i++ {
		a := uint64((i * 31) % 4096 * 16)
		r, _ := l1.Access(a, Load, now)
		if i%7 == 0 {
			now = r // sometimes wait, sometimes pipeline
		} else {
			now++
		}
	}
	got := l1.Stats.Hits[Load] + l1.Stats.PartialMisses[Load] + l1.Stats.FullMisses[Load]
	if got != n {
		t.Fatalf("hit+partial+full = %d, want %d", got, n)
	}
}

func TestPrefetchHidesLatency(t *testing.T) {
	l1, _, _ := testHierarchy(32)
	l1.PrefetchLine(0x3000, 0)
	// Access long after the prefetch completes: should be a hit.
	ready, out := l1.Access(0x3000, Load, 1000)
	if out != Hit || ready != 1001 {
		t.Fatalf("post-prefetch access: (%d,%v)", ready, out)
	}
	// A prefetch issued too late turns the demand access into a
	// partial miss (combining), still better than a full miss.
	l1.PrefetchLine(0x4000, 0)
	ready2, out2 := l1.Access(0x4000, Load, 3)
	if out2 != PartialMiss {
		t.Fatalf("late-prefetch access outcome %v", out2)
	}
	if ready2 <= 4 {
		t.Fatalf("partial miss ready %d suspiciously fast", ready2)
	}
}

func TestPrefetchDroppedWhenMSHRsBusy(t *testing.T) {
	l1, _, _ := testHierarchy(32)
	// Fill all 4 L1 MSHRs with demand misses at time 0.
	for i := 0; i < 4; i++ {
		l1.Access(uint64(0x8000+i*0x40), Load, 0)
	}
	l1.PrefetchLine(0xF000, 0)
	if l1.Stats.PrefetchesDropped != 1 {
		t.Fatalf("dropped = %d, want 1", l1.Stats.PrefetchesDropped)
	}
}

func TestMSHRStallDelaysDemandMiss(t *testing.T) {
	l1, _, _ := testHierarchy(32)
	for i := 0; i < 4; i++ {
		l1.Access(uint64(0x8000+i*0x40), Load, 0)
	}
	// Fifth distinct miss at time 0 must wait for an MSHR.
	l1.Access(0xF000, Load, 0)
	if l1.Stats.MSHRStallCycles == 0 {
		t.Fatal("expected MSHR stall cycles")
	}
}

func TestMemoryBusOccupancySerializesFills(t *testing.T) {
	mm := NewMainMemory(70, 8, 64)
	r1 := mm.Fetch(0x0, 0)
	r2 := mm.Fetch(0x1000, 0)
	if r2 <= r1 {
		t.Fatalf("concurrent fills not serialized: %d then %d", r1, r2)
	}
	if r2-r1 != 8 { // 64 bytes at 8 B/cycle
		t.Fatalf("bus occupancy gap = %d, want 8", r2-r1)
	}
}

func TestLongerLinesCostMoreAtMemory(t *testing.T) {
	t32 := NewMainMemory(70, 8, 32).Fetch(0, 0)
	t128 := NewMainMemory(70, 8, 128).Fetch(0, 0)
	if t128 <= t32 {
		t.Fatalf("128B fill (%d) should be slower than 32B (%d)", t128, t32)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "x", SizeBytes: 1000, LineSize: 33, Assoc: 2},
		{Name: "x", SizeBytes: 1024, LineSize: 32, Assoc: 5},
		{Name: "x", SizeBytes: 0, LineSize: 32, Assoc: 0},
		{Name: "x", SizeBytes: 1024, LineSize: 32, Assoc: 2, MSHRs: MaxMSHRs + 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg, nil, NewMainMemory(70, 8, cfg.LineSize))
		}()
	}
}

// Property: the sequence of outcomes is deterministic in the address
// trace, and the miss classification partitions all accesses.
func TestAccessDeterminismProperty(t *testing.T) {
	run := func(addrs []uint16) ([3]uint64, [3]uint64, [3]uint64) {
		l1, _, _ := testHierarchy(32)
		now := int64(0)
		for _, a := range addrs {
			r, _ := l1.Access(uint64(a)*8, Load, now)
			now = (now + r) / 2 // deterministic advance
		}
		return l1.Stats.Hits, l1.Stats.PartialMisses, l1.Stats.FullMisses
	}
	prop := func(addrs []uint16) bool {
		h1, p1, f1 := run(addrs)
		h2, p2, f2 := run(addrs)
		if h1 != h2 || p1 != p2 || f1 != f2 {
			return false
		}
		return h1[Load]+p1[Load]+f1[Load] == uint64(len(addrs))
	}
	if err := quick.Check(prop, quickseed.Config(t, 100)); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBackMissForwardsDown(t *testing.T) {
	_, l2, mm := testHierarchy(32)
	// A line not present in L2 written back from above goes to memory.
	l2.WriteBack(0xABC0, 0)
	if mm.BytesWritten != 32 {
		t.Fatalf("memory writes = %d, want 32", mm.BytesWritten)
	}
	if l2.Stats.BytesToNext != 32 {
		t.Fatalf("L2 bytes to next = %d", l2.Stats.BytesToNext)
	}
}

func TestOutcomeStrings(t *testing.T) {
	if Hit.String() != "hit" || PartialMiss.String() != "partial" || FullMiss.String() != "full" {
		t.Fatal("outcome strings")
	}
}

func TestMissesHelper(t *testing.T) {
	l1, _, _ := testHierarchy(32)
	l1.Access(0x0, Load, 0)
	l1.Access(0x8, Load, 1) // partial (same line, fill outstanding)
	if l1.Stats.Misses(Load) != 2 {
		t.Fatalf("Misses = %d", l1.Stats.Misses(Load))
	}
}

func TestLineSizeAndLineAddr(t *testing.T) {
	l1, _, _ := testHierarchy(64)
	if l1.LineSize() != 64 {
		t.Fatalf("LineSize = %d", l1.LineSize())
	}
	if got := l1.LineAddr(0x12345); got != 0x12340 {
		t.Fatalf("LineAddr = %#x", got)
	}
}

func TestInvalidateAndPresent(t *testing.T) {
	l1, _, _ := testHierarchy(32)
	r, _ := l1.Access(0x1000, Store, 0)
	if !l1.Present(0x1010) {
		t.Fatal("line not present after access")
	}
	if !l1.Invalidate(0x1008) {
		t.Fatal("invalidate missed a present line")
	}
	if l1.Present(0x1000) {
		t.Fatal("line still present after invalidate")
	}
	if l1.Invalidate(0x1000) {
		t.Fatal("second invalidate should miss")
	}
	// A dirty line dropped by Invalidate must not write back.
	wb := l1.Stats.WriteBacks
	l1.Access(0x1000, Load, r+100)
	if l1.Stats.WriteBacks != wb {
		t.Fatal("invalidate leaked a writeback")
	}
}

func TestContentsCountsValidLines(t *testing.T) {
	l1, _, _ := testHierarchy(32)
	now := int64(0)
	for i := 0; i < 5; i++ {
		r, _ := l1.Access(uint64(i)*0x40, Load, now)
		now = r
	}
	if got := l1.Contents(); got != 5 {
		t.Fatalf("Contents = %d", got)
	}
	l1.Invalidate(0)
	if got := l1.Contents(); got != 4 {
		t.Fatalf("after invalidate: %d", got)
	}
}

func TestDefaultedConfigFields(t *testing.T) {
	// MSHRs and transfer width default when zero.
	c := New(Config{Name: "d", SizeBytes: 1024, LineSize: 32, Assoc: 2, HitLatency: 1},
		nil, NewMainMemory(70, 0, 32)) // bytesPerCycle also defaults
	for i := 0; i < 12; i++ {
		c.Access(uint64(i)*0x40, Load, 0) // would panic with 0 MSHRs
	}
}

func TestPrefetchAlreadyOutstandingIsNoop(t *testing.T) {
	l1, _, _ := testHierarchy(32)
	l1.Access(0x5000, Load, 0) // miss outstanding
	dropped := l1.Stats.PrefetchesDropped
	full := l1.Stats.FullMisses[Prefetch]
	l1.PrefetchLine(0x5000, 1) // same line, fill in flight
	if l1.Stats.PrefetchesDropped != dropped || l1.Stats.FullMisses[Prefetch] != full {
		t.Fatal("prefetch of an in-flight line should be a silent no-op")
	}
}

// The orphan set is one 64-bit mask, so more than MaxMSHRs MSHRs is a
// bad geometry: New panics on it (TestBadGeometryPanics) and the
// decoder rejects a snapshot that claims it.
func TestDecodeRejectsTooManyMSHRs(t *testing.T) {
	for _, n := range []int{MaxMSHRs, MaxMSHRs + 1} {
		cfg := Config{Name: "x", SizeBytes: 64, LineSize: 32, Assoc: 2, HitLatency: 1, MSHRs: n, TransferBytesPerCycle: 16}
		s := &CacheSnapshot{cfg: cfg, tags: make([]uint64, 2), valid: make([]bool, 2),
			dirty: make([]bool, 2), lru: make([]int64, 2), mshrs: make([]mshr, n)}
		var w wire.Writer
		s.EncodeWire(&w)
		r := wire.NewReader(w.Bytes())
		DecodeCacheSnapshot(r)
		if err := r.Close(); (err == nil) != (n <= MaxMSHRs) {
			t.Errorf("%d MSHRs: decode error %v", n, err)
		}
	}
}

// A struct that is a whole number of 64-byte lines lands in a size
// class of whole lines, so every Cache starts a line of its own and no
// two Caches share one (see the pad at the end of Cache).
func TestCacheSizeIsWholeHostLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pad is sized for 64-bit platforms")
	}
	if n := unsafe.Sizeof(Cache{}); n%64 != 0 {
		t.Fatalf("Cache is %d bytes, not a whole number of 64-byte lines: resize its trailing pad", n)
	}
}
