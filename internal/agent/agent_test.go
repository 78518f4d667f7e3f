package agent

import (
	"math/rand"
	"testing"

	"memfwd/internal/mem"
)

// TestArenaSlots pins the slot geometry: slot 0 is the region the chaos
// adversary has always relocated into and slot 1 the scheduler's, both
// sized from the same 1 MiB-aligned heap end, and they never overlap.
func TestArenaSlots(t *testing.T) {
	for _, limit := range []uint64{0x1000, 0x4000_0000, 0x4000_0001} {
		al := mem.NewAllocator(mem.New(), 0x1000_0000, limit)
		_, heapEnd := al.Range()
		aligned := (heapEnd + 0xF_FFFF) &^ 0xF_FFFF
		chaos := Arena{Next: aligned + 0x10_0000, End: aligned + 0x10_0000 + (1 << 28), Budget: 1 << 19}
		schedBase := aligned + 0x10_0000 + (1 << 28) + 0x10_0000
		sched := Arena{Next: schedBase, End: schedBase + (1 << 28), Budget: 1 << 19}

		a0, a1 := NewArena(al, 0), NewArena(al, 1)
		if a0 != chaos {
			t.Errorf("heap end %#x: slot 0 = %+v, want %+v", heapEnd, a0, chaos)
		}
		if a1 != sched {
			t.Errorf("heap end %#x: slot 1 = %+v, want %+v", heapEnd, a1, sched)
		}
		if a0.Next <= heapEnd || a0.End >= a1.Next {
			t.Errorf("heap end %#x: slots not above the heap and disjoint: %+v, %+v", heapEnd, a0, a1)
		}
	}
}

// TestArenaTargetChargesOnSuccess: Target charges the word budget only
// when it hands out space, and Take never charges it.
func TestArenaTargetChargesOnSuccess(t *testing.T) {
	a := Arena{Next: 0x1000, End: 0x1000 + 64, Budget: 4}
	if p := a.Target(40); p != 0 || a.Budget != 4 || a.Next != 0x1000 {
		t.Fatalf("over-budget Target = %#x, arena %+v; want 0 and nothing charged", p, a)
	}
	if p := a.Target(24); p != 0x1000 || a.Budget != 1 || a.Next != 0x1018 {
		t.Fatalf("Target(24) = %#x, arena %+v", p, a)
	}
	if p := a.Take(33); p != 0x1018 || a.Budget != 1 || a.Next != 0x1040 {
		t.Fatalf("Take(33) = %#x, arena %+v; want a word-rounded take, budget untouched", p, a)
	}
	if p := a.Target(8); p != 0 || a.Budget != 1 {
		t.Fatalf("Target on an exhausted arena = %#x, budget %d; want 0 and nothing charged", p, a.Budget)
	}
}

// TestVictimsPickDropsDead: Pick never returns a freed block, drops
// each dead one it draws, and reports 0 once nothing live is left.
func TestVictimsPickDropsDead(t *testing.T) {
	al := mem.NewAllocator(mem.New(), 0x1000_0000, 1<<20)
	var v Victims
	var live []mem.Addr
	for i := 0; i < 8; i++ {
		a := al.Alloc(16)
		v.Add(a)
		if i%2 == 0 {
			al.Free(a)
		} else {
			live = append(live, a)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		if p := v.Pick(rng, al); !al.Live(p) {
			t.Fatalf("Pick returned dead block %#x", p)
		}
	}
	if len(v) < len(live) {
		t.Fatalf("Pick dropped live blocks: %d tracked, %d live", len(v), len(live))
	}
	for _, a := range live {
		al.Free(a)
	}
	if p := v.Pick(rng, al); p != 0 || len(v) != 0 {
		t.Fatalf("Pick on all-dead set = %#x with %d tracked, want 0 and empty", p, len(v))
	}
	v.Add(live[0])
	v.Remove(live[0])
	v.Remove(live[1]) // untracked: a no-op
	if len(v) != 0 {
		t.Fatalf("Remove left %d tracked", len(v))
	}
}

// maxRand always draws the top of the range.
type maxRand struct{}

func (maxRand) Intn(n int) int { return n - 1 }

// TestClockAtMaxEvery: the largest allowed mean draws countdowns up to
// 2*MaxEvery without overflow, and anything larger is refused.
func TestClockAtMaxEvery(t *testing.T) {
	c := NewClock(MaxEvery, maxRand{})
	if c.Countdown != 2*MaxEvery {
		t.Fatalf("countdown = %d, want %d", c.Countdown, 2*MaxEvery)
	}
	c.Countdown = 1
	if !c.Tick(maxRand{}) || c.Countdown != 2*MaxEvery {
		t.Fatalf("expiring tick left countdown %d, want %d", c.Countdown, 2*MaxEvery)
	}
	if c.Tick(maxRand{}) || c.Countdown != 2*MaxEvery-1 {
		t.Fatalf("plain tick left countdown %d", c.Countdown)
	}
	for _, every := range []int{0, MaxEvery + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewClock(%d) did not panic", every)
				}
			}()
			NewClock(every, maxRand{})
		}()
	}
}
