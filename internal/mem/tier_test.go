package mem

import (
	"fmt"
	"testing"
)

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil {
			t.Fatalf("expected panic %q, got none", want)
		}
	}()
	f()
}

// Satellite regression: roundSize used to wrap for requests within a
// word of 2^64 — roundSize(^uint64(0)-3) became 0, so Alloc handed out
// a zero-size "block" (live[a]=0, brk advanced by header only) instead
// of failing. It must now panic as arena exhaustion.
func TestRoundSizeOverflowPanics(t *testing.T) {
	for _, n := range []uint64{^uint64(0), ^uint64(0) - 3, ^uint64(0) - 6} {
		mustPanic(t, "arena exhausted", func() { roundSize(n) })
	}
	// The largest roundable request still rounds cleanly.
	if got := roundSize(^uint64(0) - 7); got != ^uint64(0)-7 {
		t.Fatalf("roundSize(max-7) = %#x", got)
	}
}

func TestAllocHugeRequestPanics(t *testing.T) {
	al := newTestAlloc()
	for _, n := range []uint64{^uint64(0) - 3, ^uint64(0) - 8, 1 << 62} {
		mustPanic(t, "arena exhausted", func() { al.Alloc(n) })
		if al.BytesLive != 0 || len(al.live) != 0 {
			t.Fatalf("failed Alloc(%#x) leaked state: live=%d blocks=%d", n, al.BytesLive, len(al.live))
		}
	}
}

func TestArenaHugeRequestReturnsSentinel(t *testing.T) {
	ar := NewArenaAt(0x10000, 1<<20)
	// Rounds fine but wraps next+size past end without the Remaining
	// phrasing; must hit the 0 sentinel, not hand out a bogus address.
	if a := ar.Alloc(1 << 62); a != 0 {
		t.Fatalf("Alloc(1<<62) = %#x, want 0", a)
	}
	if a := ar.Alloc(64); a != 0x10000 {
		t.Fatalf("arena cursor perturbed by failed huge alloc: %#x", a)
	}
}

func defaultTestTiers() *Tiers {
	return NewTiers(DefaultTierConfig(2, 70))
}

func TestTierGeometry(t *testing.T) {
	tt := defaultTestTiers()
	if tt.N() != 2 || tt.Default() != 0 || tt.Slowest() != 1 {
		t.Fatalf("N=%d Default=%d Slowest=%d", tt.N(), tt.Default(), tt.Slowest())
	}
	if tt.Latency(0) != 70 || tt.Latency(1) != 210 {
		t.Fatalf("latencies %d/%d", tt.Latency(0), tt.Latency(1))
	}
	b0, e0 := tt.Window(0)
	b1, e1 := tt.Window(1)
	if b0 != TierWindowBase || e0-b0 != Addr(tt.Capacity(0)) {
		t.Fatalf("window 0 = [%#x,%#x)", b0, e0)
	}
	if b1 < e0+Addr(tierGuardBytes) {
		t.Fatalf("window 1 base %#x inside window 0's guard (end %#x)", b1, e0)
	}
	if e1 <= b1 {
		t.Fatalf("window 1 = [%#x,%#x)", b1, e1)
	}
}

func TestTierOf(t *testing.T) {
	tt := defaultTestTiers()
	b0, e0 := tt.Window(0)
	b1, _ := tt.Window(1)
	cases := []struct {
		a    Addr
		want int
	}{
		{0x1000_0000, 0}, // heap: near memory, tier 0
		{0, 0},           // the Arena 0-sentinel maps to the default tier
		{b0, 0},          // tier 0's own window is still near memory
		{e0 - 1, 0},
		{e0, 0},       // guard gap falls back to the default tier
		{b0 - 1, 0},   // below the first window
		{b1, 1},       // demotion window is the far tier
		{^Addr(0), 0}, // far beyond all windows
	}
	for _, c := range cases {
		if got := tt.TierOf(c.a); got != c.want {
			t.Errorf("TierOf(%#x) = %d, want %d", c.a, got, c.want)
		}
	}
	if tt.LineLatency(uint64(b0)) != 70 || tt.LineLatency(0x1000_0000) != 70 || tt.LineLatency(uint64(b1)) != 210 {
		t.Fatalf("LineLatency: near-window=%d heap=%d far-window=%d",
			tt.LineLatency(uint64(b0)), tt.LineLatency(0x1000_0000), tt.LineLatency(uint64(b1)))
	}
}

func TestTierTakeRelease(t *testing.T) {
	tt := defaultTestTiers()
	a := tt.Take(0, 60) // rounds to 64
	b0, _ := tt.Window(0)
	if a != b0 {
		t.Fatalf("Take = %#x, want window base %#x", a, b0)
	}
	if tt.BytesLive(0) != 64 {
		t.Fatalf("BytesLive(0) = %d", tt.BytesLive(0))
	}
	if tt.TierOf(a) != 0 {
		t.Fatalf("taken address %#x not in tier 0", a)
	}
	tt.Release(0, 60)
	if tt.BytesLive(0) != 0 {
		t.Fatalf("BytesLive(0) after release = %d", tt.BytesLive(0))
	}
	mustPanic(t, "release", func() { tt.Release(0, 8) })
}

// Satellite coverage: Arena.AlignTo / Alloc exhaustion interplay under
// tier-sized arenas — an aligned cursor parked exactly at end, a
// zero-Remaining arena, and the 0 sentinel must all behave.
func TestTierArenaExhaustion(t *testing.T) {
	tt := defaultTestTiers()
	ar := tt.Arena(0)
	base, end := tt.Window(0)

	// Drain the window to its final word.
	if a := ar.Alloc(tt.Capacity(0) - WordSize); a != base {
		t.Fatalf("drain alloc = %#x", a)
	}
	// AlignTo past the remaining word parks the cursor at end...
	ar.AlignTo(4096)
	if ar.Remaining() != 0 {
		t.Fatalf("Remaining after AlignTo past end = %d", ar.Remaining())
	}
	// ...and every subsequent Alloc, including size 0 (which rounds to
	// one word), returns the sentinel.
	for _, n := range []uint64{0, 1, 8, 1 << 20} {
		if a := ar.Alloc(n); a != 0 {
			t.Fatalf("Alloc(%d) on exhausted arena = %#x, want 0", n, a)
		}
	}
	// AlignTo on an exhausted arena is a no-op, not an overflow.
	ar.AlignTo(1 << 20)
	if ar.Remaining() != 0 || Addr(ar.next) != end {
		t.Fatalf("cursor moved past end: next=%#x end=%#x", ar.next, end)
	}

	// The sentinel can never collide with a real address: 0 is outside
	// every tier window (windows start at 2^40), so TierOf(0) is the
	// default tier and no window arena can ever return 0 as a block.
	for i := 0; i < tt.N(); i++ {
		b, e := tt.Window(i)
		if b == 0 || b <= 0 && e > 0 {
			t.Fatalf("tier %d window [%#x,%#x) contains the 0 sentinel", i, b, e)
		}
		if tt.TierOf(0) != tt.Default() {
			t.Fatalf("TierOf(0) = %d, want default %d", tt.TierOf(0), tt.Default())
		}
	}
}

func TestTierConfigValidation(t *testing.T) {
	mustPanic(t, "tiers", func() { NewTiers(&TierConfig{Latencies: []int64{70}, Capacities: []uint64{1 << 20}}) })
	mustPanic(t, "capacities", func() { NewTiers(&TierConfig{Latencies: []int64{70, 210}, Capacities: []uint64{1 << 20}}) })
	mustPanic(t, "non-decreasing", func() {
		NewTiers(&TierConfig{Latencies: []int64{210, 70}, Capacities: []uint64{1 << 20, 1 << 20}})
	})
	mustPanic(t, "word-aligned", func() {
		NewTiers(&TierConfig{Latencies: []int64{70, 210}, Capacities: []uint64{1 << 20, 12345}})
	})
	mustPanic(t, "positive", func() { DefaultTierConfig(2, 0) })
	mustPanic(t, "at least 2", func() { DefaultTierConfig(1, 70) })
}

// The Place hook is the spill-placement channel: a tiering daemon can
// route a new allocation straight into a far-memory window (direct
// address, no forwarding chain) instead of the over-budget heap. The
// allocator must treat placed blocks as first-class identities —
// live map, accounting, OnEvent — but never recycle their window
// space through the freelist.
func TestPlaceHookRoutesAllocs(t *testing.T) {
	al := newTestAlloc()
	tt := defaultTestTiers()
	al.Place = func(size uint64) Addr {
		if size == 64 {
			return tt.Take(tt.Slowest(), size)
		}
		return 0
	}
	var events []string
	al.OnEvent = func(op string, a Addr, size uint64) {
		events = append(events, fmt.Sprintf("%s:%#x:%d", op, a, size))
	}

	w := al.Alloc(60) // rounds to 64: placed in the far window
	slowBase, _ := tt.Window(tt.Slowest())
	if w != slowBase {
		t.Fatalf("placed alloc = %#x, want far-window base %#x", w, slowBase)
	}
	if al.Contains(w) {
		t.Fatalf("placed block %#x reported inside the heap range", w)
	}
	if !al.Live(w) || al.BytesLive != 64 {
		t.Fatalf("placed block not accounted: live=%v bytesLive=%d", al.Live(w), al.BytesLive)
	}

	h := al.Alloc(128) // hook declines: ordinary heap block
	if !al.Contains(h) {
		t.Fatalf("declined alloc %#x not on the heap", h)
	}

	al.Free(w)
	if al.Live(w) || al.BytesLive != 128 {
		t.Fatalf("placed free not accounted: live=%v bytesLive=%d", al.Live(w), al.BytesLive)
	}
	// The freed window address must NOT come back from the freelist.
	al.Place = nil
	if again := al.Alloc(64); again == w || !al.Contains(again) {
		t.Fatalf("freelist recycled window space: %#x", again)
	}

	want := []string{
		fmt.Sprintf("alloc:%#x:64", w),
		fmt.Sprintf("alloc:%#x:128", h),
		fmt.Sprintf("free:%#x:64", w),
		fmt.Sprintf("alloc:%#x:64", al.LiveBlocks()[len(al.LiveBlocks())-1]),
	}
	if len(events) != len(want) {
		t.Fatalf("events %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d = %q, want %q", i, events[i], want[i])
		}
	}
}

func TestPlaceHookRejectsBadAddresses(t *testing.T) {
	al := newTestAlloc()
	al.Place = func(size uint64) Addr { return 0x10004 } // unaligned
	mustPanic(t, "unaligned", func() { al.Alloc(8) })
	al.Place = func(size uint64) Addr { return 0x20000 } // inside the heap
	mustPanic(t, "in-heap", func() { al.Alloc(8) })
}

// OnEvent is the heat-attribution channel and Track the tiering
// daemon's: each must fire for every path that creates or retires a
// block — timed or untimed — and after bookkeeping so listeners see
// consistent allocator state, Track after OnEvent.
func TestOnEventCoversAllPaths(t *testing.T) {
	al := newTestAlloc()
	type ev struct {
		op   string
		a    Addr
		size uint64
		live bool
	}
	var got []ev
	al.OnEvent = func(op string, a Addr, size uint64) {
		got = append(got, ev{op, a, size, al.Live(a)})
	}
	al.Track = func(a Addr, live bool) {
		last := got[len(got)-1]
		if last.a != a || last.live != live || al.Live(a) != live {
			t.Fatalf("Track(%#x, %v) after OnEvent %+v", a, live, last)
		}
		got[len(got)-1].op += "+track"
	}
	a := al.Alloc(24)
	al.Free(a)
	b := al.Alloc(24) // freelist reuse: same base must re-announce
	ar := NewArena(al, 256)
	want := []ev{
		{"alloc+track", a, 24, true},
		{"free+track", a, 24, false},
		{"alloc+track", b, 24, true},
		{"alloc+track", ar.Base(), 256, true},
	}
	if len(got) != len(want) {
		t.Fatalf("events %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if a != b {
		t.Fatalf("expected freelist reuse, got %#x then %#x", a, b)
	}
}
