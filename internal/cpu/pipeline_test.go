package cpu

import (
	"bytes"
	"testing"
	"testing/quick"

	"memfwd/internal/quickseed"
	"memfwd/internal/wire"
)

// Op feeds one non-memory instruction with the given execution latency
// (values below 1 count as 1). Op and Bubble are the per-instruction
// reference that Inst fuses; instRef below composes them.
func (p *Pipeline) Op(lat int64) {
	if lat < 1 {
		lat = 1
	}
	d := p.dispatch()
	p.Stats.Instructions++
	p.graduate(d+lat, InstStall)
}

// Bubble models a front-end stall (e.g. a mispredicted branch): the
// dispatch stream advances n cycles with no instructions entering the
// window. Non-positive n is a no-op.
func (p *Pipeline) Bubble(n int64) {
	if n <= 0 {
		return
	}
	p.dispCycle += n
	p.dispUsed = 0
}

// instRef is Inst one instruction at a time through Op and Bubble.
func (p *Pipeline) instRef(n int, mix *Mix, misp, dep uint32) (uint32, uint32) {
	for i := 0; i < n; i++ {
		misp--
		dep--
		switch {
		case misp == 0:
			misp = mix.MispredictEvery
			if dep == 0 {
				dep = mix.DepEvery
			}
			p.Op(mix.MispredictLat)
			p.Bubble(mix.MispredictBubble)
		case dep == 0:
			dep = mix.DepEvery
			p.Op(mix.DepLat)
		default:
			p.Op(1)
		}
	}
	return misp, dep
}

func fixedLat(lat int64) func(int64) int64 {
	return func(issue int64) int64 { return issue + lat }
}

func r(lo, n uint64) Range { return Range{Lo: lo, Hi: lo + n} }

func TestRangeOverlaps(t *testing.T) {
	cases := []struct {
		a, b Range
		want bool
	}{
		{r(0, 8), r(8, 8), false},
		{r(0, 8), r(7, 1), true},
		{r(16, 4), r(0, 32), true},
		{r(4, 4), r(4, 4), true},
		{r(0, 4), r(4, 4), false},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v overlaps %v = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("overlap not symmetric for %v %v", c.a, c.b)
		}
	}
}

func TestPlainOpsGraduateAtFullWidth(t *testing.T) {
	p := New(Config{Width: 4})
	const n = 4000
	for i := 0; i < n; i++ {
		p.Op(1)
	}
	p.Finalize()
	// n ops at width 4 => ~n/4 cycles, nearly all slots busy.
	if p.Stats.Cycles > n/4+4 {
		t.Fatalf("cycles = %d, want about %d", p.Stats.Cycles, n/4)
	}
	if p.Stats.Slots[Busy] != n {
		t.Fatalf("busy slots = %d, want %d", p.Stats.Slots[Busy], n)
	}
}

func TestSlotAccountingPartitionsAllSlots(t *testing.T) {
	p := New(Config{Width: 4})
	for i := 0; i < 100; i++ {
		p.Op(1)
		if i%10 == 0 {
			p.Load(r(uint64(i)*64, 8), r(uint64(i)*64, 8), 0, fixedLat(50))
		}
		if i%7 == 0 {
			p.Store(r(uint64(i)*128, 8), r(uint64(i)*128, 8), fixedLat(30))
		}
	}
	p.Finalize()
	want := uint64(p.Stats.Cycles) * 4
	if got := p.Stats.TotalSlots(); got != want {
		t.Fatalf("slots %d != width*cycles %d", got, want)
	}
}

func TestLoadMissStallsChargedToLoadStall(t *testing.T) {
	p := New(Config{Width: 4})
	for i := 0; i < 16; i++ {
		p.Op(1)
	}
	p.Load(r(0, 8), r(0, 8), 0, fixedLat(200))
	p.Finalize()
	if p.Stats.Slots[LoadStall] == 0 {
		t.Fatal("expected load stall slots")
	}
	if p.Stats.Slots[LoadStall] < 100 {
		t.Fatalf("load stall %d too small for a 200-cycle miss", p.Stats.Slots[LoadStall])
	}
}

func TestROBLimitsOverlap(t *testing.T) {
	// With a tiny ROB, a long-latency load blocks dispatch of
	// followers, serializing misses; with a large ROB the misses
	// overlap and total cycles shrink.
	run := func(rob int) int64 {
		p := New(Config{Width: 4, ROB: rob})
		for i := 0; i < 32; i++ {
			p.Load(r(uint64(i)*64, 8), r(uint64(i)*64, 8), 0, fixedLat(100))
			for j := 0; j < 3; j++ {
				p.Op(1)
			}
		}
		p.Finalize()
		return p.Stats.Cycles
	}
	small, large := run(4), run(128)
	if large >= small {
		t.Fatalf("ROB=128 (%d cycles) should beat ROB=4 (%d cycles)", large, small)
	}
}

func TestStoreBufferFullCausesStoreStall(t *testing.T) {
	p := New(Config{Width: 4, StoreBuffer: 2})
	for i := 0; i < 64; i++ {
		p.Store(r(uint64(i)*64, 8), r(uint64(i)*64, 8), fixedLat(100))
	}
	p.Finalize()
	if p.Stats.Slots[StoreStall] == 0 {
		t.Fatal("expected store stalls with slow drains and a tiny buffer")
	}
}

func TestStoreBufferAbsorbsFastDrains(t *testing.T) {
	p := New(Config{Width: 4, StoreBuffer: 16})
	for i := 0; i < 64; i++ {
		p.Store(r(uint64(i)*64, 8), r(uint64(i)*64, 8), fixedLat(1))
		p.Op(1)
		p.Op(1)
		p.Op(1)
	}
	p.Finalize()
	if p.Stats.Slots[StoreStall] != 0 {
		t.Fatalf("store stalls = %d, want 0 with fast drains", p.Stats.Slots[StoreStall])
	}
}

func TestDependenceViolationDetected(t *testing.T) {
	p := New(Config{Width: 4, DepPenalty: 16})
	// Store whose final address (0x9000) differs from its initial
	// address (0x100) — i.e. the stored-to object was relocated.
	p.Store(r(0x100, 8), r(0x9000, 8), fixedLat(100))
	// Load with a different initial address but the same final
	// address: the classic misspeculation case of Section 3.2.
	info := p.Load(r(0x200, 8), r(0x9000, 8), 0, fixedLat(2))
	p.Finalize()
	if !info.Violated {
		t.Fatal("violation not flagged")
	}
	if p.Stats.DepViolations != 1 {
		t.Fatalf("DepViolations = %d", p.Stats.DepViolations)
	}
	if info.Ready < info.Issue+16 {
		t.Fatalf("penalty not applied: issue %d ready %d", info.Issue, info.Ready)
	}
}

func TestMatchingInitialAddressesBypassNotViolation(t *testing.T) {
	p := New(Config{Width: 4})
	p.Store(r(0x100, 8), r(0x9000, 8), fixedLat(100))
	info := p.Load(r(0x100, 8), r(0x9000, 8), 0, fixedLat(50))
	p.Finalize()
	if info.Violated {
		t.Fatal("matching initial addresses must not violate")
	}
	if !info.Bypassed || p.Stats.DepBypasses != 1 {
		t.Fatalf("expected store-to-load bypass: %+v", info)
	}
	if info.Ready != info.Issue+1 {
		t.Fatalf("bypass should satisfy load quickly: %+v", info)
	}
}

func TestNoViolationWhenStoreAlreadyGraduated(t *testing.T) {
	p := New(Config{Width: 4, DepPenalty: 16})
	p.Store(r(0x100, 8), r(0x9000, 8), fixedLat(1))
	// Separate the store and load by far more than the pipeline depth.
	for i := 0; i < 1000; i++ {
		p.Op(1)
	}
	info := p.Load(r(0x200, 8), r(0x9000, 8), 0, fixedLat(2))
	p.Finalize()
	if info.Violated {
		t.Fatal("store long graduated; no speculation in flight")
	}
	if p.Stats.DepViolations != 0 {
		t.Fatalf("DepViolations = %d", p.Stats.DepViolations)
	}
}

func TestDisjointFinalAddressesNoViolation(t *testing.T) {
	p := New(Config{Width: 4})
	p.Store(r(0x100, 8), r(0x9000, 8), fixedLat(100))
	info := p.Load(r(0x300, 8), r(0xA000, 8), 0, fixedLat(2))
	p.Finalize()
	if info.Violated || info.Bypassed {
		t.Fatalf("independent references flagged: %+v", info)
	}
}

func TestPrefetchDoesNotStall(t *testing.T) {
	p := New(Config{Width: 4})
	issued := false
	p.Prefetch(0, func(at int64) { issued = true })
	p.Finalize()
	if !issued {
		t.Fatal("prefetch issue function not called")
	}
	if p.Stats.Slots[LoadStall]+p.Stats.Slots[StoreStall] != 0 {
		t.Fatal("prefetch charged memory stalls")
	}
}

func TestInstStallFromMultiCycleOps(t *testing.T) {
	p := New(Config{Width: 4})
	for i := 0; i < 400; i++ {
		if i%8 == 0 {
			p.Op(3)
		} else {
			p.Op(1)
		}
	}
	p.Finalize()
	if p.Stats.Slots[InstStall] == 0 {
		t.Fatal("multi-cycle ops should produce inst stall")
	}
}

func TestCyclesMonotoneInLatency(t *testing.T) {
	run := func(lat int64) int64 {
		p := New(Config{Width: 4})
		for i := 0; i < 200; i++ {
			p.Load(r(uint64(i)*64, 8), r(uint64(i)*64, 8), 0, fixedLat(lat))
			p.Op(1)
		}
		p.Finalize()
		return p.Stats.Cycles
	}
	if !(run(1) <= run(10) && run(10) <= run(100)) {
		t.Fatal("cycles not monotone in load latency")
	}
}

// Property: for any mix of ops/loads/stores with bounded latencies, the
// slot partition invariant holds and cycle count is deterministic.
func TestPipelineInvariantProperty(t *testing.T) {
	prop := func(mix []uint8) bool {
		build := func() *Pipeline {
			p := New(Config{Width: 4, ROB: 32, StoreBuffer: 4})
			for i, m := range mix {
				a := uint64(i) * 16
				switch m % 4 {
				case 0, 1:
					p.Op(int64(m%3) + 1)
				case 2:
					p.Load(r(a, 8), r(a, 8), 0, fixedLat(int64(m%100)+1))
				case 3:
					p.Store(r(a, 8), r(a, 8), fixedLat(int64(m%60)+1))
				}
			}
			p.Finalize()
			return p
		}
		p1, p2 := build(), build()
		if p1.Stats.Cycles != p2.Stats.Cycles {
			return false
		}
		return p1.Stats.TotalSlots() == uint64(p1.Stats.Cycles)*4
	}
	if err := quick.Check(prop, quickseed.Config(t, 200)); err != nil {
		t.Fatal(err)
	}
}

func TestFinalizeIdempotent(t *testing.T) {
	p := New(Config{})
	p.Op(1)
	p.Finalize()
	c := p.Stats.Cycles
	p.Finalize()
	if p.Stats.Cycles != c {
		t.Fatal("Finalize not idempotent")
	}
}

func TestBubbleStallsDispatch(t *testing.T) {
	// A front-end bubble delays everything after it; with only plain
	// ops, the lost cycles surface as non-busy slots.
	run := func(bubbles bool) int64 {
		p := New(Config{Width: 4})
		for i := 0; i < 400; i++ {
			p.Op(1)
			if bubbles && i%40 == 0 {
				p.Bubble(10)
			}
		}
		p.Finalize()
		return p.Stats.Cycles
	}
	plain, bubbled := run(false), run(true)
	if bubbled < plain+80 {
		t.Fatalf("bubbles added too little: %d vs %d", bubbled, plain)
	}
}

func TestBubbleNonPositiveIsNoop(t *testing.T) {
	p := New(Config{Width: 4})
	p.Op(1)
	p.Bubble(0)
	p.Bubble(-5)
	p.Op(1)
	p.Finalize()
	if p.Stats.Cycles > 3 {
		t.Fatalf("no-op bubble cost cycles: %d", p.Stats.Cycles)
	}
}

func TestNowAdvances(t *testing.T) {
	p := New(Config{Width: 4})
	before := p.Now()
	for i := 0; i < 100; i++ {
		p.Op(1)
	}
	if p.Now() <= before {
		t.Fatal("Now did not advance")
	}
}

// TestInstMatchesPerInstructionReference holds the fused Inst loop to
// instRef, the same mix one Op and Bubble at a time. Each trial draws a
// pipeline shape, a mix (latencies and bubbles below one included) and
// starting counters anywhere in their range, then interleaves runs of
// 0–64 instructions with long-latency loads and slow store drains, so
// the ROB bound and the store buffer bind. Stats, counters and the
// encoded pipeline state must agree after every call.
func TestInstMatchesPerInstructionReference(t *testing.T) {
	rng := quickseed.Rand(t)
	mixes := []Mix{
		{MispredictEvery: 48, MispredictLat: 2, MispredictBubble: 5, DepEvery: 6, DepLat: 2},
		{MispredictEvery: 1, MispredictLat: 1, DepEvery: 1, DepLat: 1},
	}
	for trial := 0; trial < 300; trial++ {
		mix := Mix{
			MispredictEvery:  uint32(rng.Intn(64) + 1),
			MispredictLat:    rng.Int63n(6) - 1,
			MispredictBubble: rng.Int63n(10) - 2,
			DepEvery:         uint32(rng.Intn(12) + 1),
			DepLat:           rng.Int63n(6) - 1,
		}
		if trial < len(mixes) {
			mix = mixes[trial]
		}
		cfg := Config{Width: rng.Intn(4) + 1, ROB: rng.Intn(64) + 2, StoreBuffer: rng.Intn(8) + 1, DepPenalty: 16}
		fused, ref := New(cfg), New(cfg)
		misp := uint32(rng.Intn(int(mix.MispredictEvery))) + 1
		dep := uint32(rng.Intn(int(mix.DepEvery))) + 1
		for call := 0; call < 200; call++ {
			a := uint64(rng.Intn(64)) * 8
			switch k := rng.Intn(5); k {
			case 0:
				lat := fixedLat(rng.Int63n(400))
				fused.Load(r(a, 8), r(a, 8), 0, lat)
				ref.Load(r(a, 8), r(a, 8), 0, lat)
			case 1:
				lat := fixedLat(rng.Int63n(200))
				fused.Store(r(a, 8), r(a, 8), lat)
				ref.Store(r(a, 8), r(a, 8), lat)
			default:
				n := rng.Intn(65)
				gm, gd := fused.Inst(n, &mix, misp, dep)
				wm, wd := ref.instRef(n, &mix, misp, dep)
				if gm != wm || gd != wd {
					t.Fatalf("trial %d call %d: Inst(%d) counters (%d, %d), want (%d, %d)", trial, call, n, gm, gd, wm, wd)
				}
				misp, dep = gm, gd
			}
			if fused.Stats != ref.Stats {
				t.Fatalf("trial %d call %d: stats\n got %+v\nwant %+v", trial, call, fused.Stats, ref.Stats)
			}
			var got, want wire.Writer
			fused.Snapshot().EncodeWire(&got)
			ref.Snapshot().EncodeWire(&want)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("trial %d call %d: pipeline state differs", trial, call)
			}
		}
	}
}
