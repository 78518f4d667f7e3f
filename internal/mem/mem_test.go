package mem

import (
	"testing"
	"testing/quick"

	"memfwd/internal/quickseed"
)

func TestWordAlign(t *testing.T) {
	cases := []struct {
		in   Addr
		want Addr
		off  uint
	}{
		{0, 0, 0}, {1, 0, 1}, {7, 0, 7}, {8, 8, 0}, {0x1234, 0x1230, 4},
	}
	for _, c := range cases {
		if got := WordAlign(c.in); got != c.want {
			t.Errorf("WordAlign(%#x) = %#x, want %#x", c.in, got, c.want)
		}
		if got := WordOffset(c.in); got != c.off {
			t.Errorf("WordOffset(%#x) = %d, want %d", c.in, got, c.off)
		}
	}
}

func TestFreshMemoryIsZeroWithClearFBits(t *testing.T) {
	m := New()
	for _, a := range []Addr{0, 8, 0x1000, 0xdeadbee8, 1 << 40} {
		if v := m.ReadWord(a); v != 0 {
			t.Errorf("fresh word at %#x = %d, want 0", a, v)
		}
		if m.FBit(a) {
			t.Errorf("fresh fbit at %#x set, want clear", a)
		}
	}
}

func TestWriteReadWord(t *testing.T) {
	m := New()
	m.WriteWord(0x100, 0xdeadbeefcafebabe)
	if got := m.ReadWord(0x100); got != 0xdeadbeefcafebabe {
		t.Fatalf("got %#x", got)
	}
	// Writing a word must not disturb the forwarding bit.
	if m.FBit(0x100) {
		t.Fatal("WriteWord set fbit")
	}
}

func TestWriteWordFBitAtomicity(t *testing.T) {
	m := New()
	m.WriteWordFBit(0x200, 0x5800, true)
	v, f := m.ReadWordFBit(0x200)
	if v != 0x5800 || !f {
		t.Fatalf("got (%#x,%v), want (0x5800,true)", v, f)
	}
	m.WriteWordFBit(0x200, 42, false)
	v, f = m.ReadWordFBit(0x200)
	if v != 42 || f {
		t.Fatalf("got (%#x,%v), want (42,false)", v, f)
	}
}

func TestFBitIndependentPerWord(t *testing.T) {
	m := New()
	m.WriteWordFBit(0x1000, 1, true)
	for _, a := range []Addr{0xff8, 0x1008, 0x1010} {
		if m.FBit(a) {
			t.Errorf("fbit at %#x leaked from neighbour", a)
		}
	}
	// Clearing one word's bit leaves the neighbour set.
	m.WriteWordFBit(0x1008, 2, true)
	m.WriteWordFBit(0x1000, 1, false)
	if m.FBit(0x1000) || !m.FBit(0x1008) {
		t.Fatal("fbit bitmap not independent per word")
	}
}

func TestSubwordReadWrite(t *testing.T) {
	m := New()
	// Build the word byte by byte and read it back at each granularity.
	base := Addr(0x3000)
	for i := uint64(0); i < 8; i++ {
		if err := m.WriteData(base+Addr(i), 0x10+i, 1); err != nil {
			t.Fatal(err)
		}
	}
	want := uint64(0x1716151413121110)
	if got, _ := m.ReadData(base, 8); got != want {
		t.Fatalf("word = %#x, want %#x", got, want)
	}
	if got, _ := m.ReadData(base+4, 4); got != 0x17161514 {
		t.Fatalf("upper half = %#x", got)
	}
	if got, _ := m.ReadData(base+2, 2); got != 0x1312 {
		t.Fatalf("half = %#x", got)
	}
	if got, _ := m.ReadData(base+5, 1); got != 0x15 {
		t.Fatalf("byte = %#x", got)
	}
	// A subword write leaves the rest of the word intact.
	if err := m.WriteData(base+4, 0xAABBCCDD, 4); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.ReadData(base, 8); got != 0xAABBCCDD13121110 {
		t.Fatalf("after subword write = %#x", got)
	}
}

func TestSubwordAlignment(t *testing.T) {
	m := New()
	if _, err := m.ReadData(0x1001, 2); err != ErrUnaligned {
		t.Errorf("2-byte read at odd address: err = %v, want ErrUnaligned", err)
	}
	if _, err := m.ReadData(0x1002, 4); err != ErrUnaligned {
		t.Errorf("4-byte read at 2 mod 4: err = %v, want ErrUnaligned", err)
	}
	if _, err := m.ReadData(0x1004, 8); err != ErrUnaligned {
		t.Errorf("8-byte read at 4 mod 8: err = %v, want ErrUnaligned", err)
	}
	if err := m.WriteData(0x1003, 1, 2); err != ErrUnaligned {
		t.Errorf("unaligned write: err = %v", err)
	}
	if _, err := m.ReadData(0x1000, 3); err == nil {
		t.Error("size-3 read accepted")
	}
}

func TestSubwordWritePreservesFBit(t *testing.T) {
	m := New()
	m.WriteWordFBit(0x4000, 0x5800, true)
	if err := m.WriteData(0x4004, 7, 4); err != nil {
		t.Fatal(err)
	}
	if !m.FBit(0x4000) {
		t.Fatal("subword WriteData cleared the fbit")
	}
}

func TestZero(t *testing.T) {
	m := New()
	for i := Addr(0); i < 4; i++ {
		m.WriteWordFBit(0x5000+i*8, uint64(i)+1, true)
	}
	m.Zero(0x5000, 32)
	for i := Addr(0); i < 4; i++ {
		v, f := m.ReadWordFBit(0x5000 + i*8)
		if v != 0 || f {
			t.Fatalf("word %d after Zero: (%d,%v)", i, v, f)
		}
	}
}

// Zero with a non-word-multiple length clears only the low n%8 bytes of
// the final word; the remaining bytes and that word's forwarding bit
// belong to a neighbouring object and must survive. (An earlier version
// zeroed the whole final word, clobbering the neighbour.)
func TestZeroPartialFinalWord(t *testing.T) {
	m := New()
	m.WriteWordFBit(0x5000, 0xAAAAAAAAAAAAAAAA, true)
	m.WriteWordFBit(0x5008, 0xBBBBBBBBCCCCCCCC, true)
	m.Zero(0x5000, 12)
	if v, f := m.ReadWordFBit(0x5000); v != 0 || f {
		t.Fatalf("fully covered word after Zero: (%#x,%v)", v, f)
	}
	v, f := m.ReadWordFBit(0x5008)
	if v != 0xBBBBBBBB00000000 {
		t.Fatalf("partial word = %#x, want high bytes preserved", v)
	}
	if !f {
		t.Fatal("Zero cleared the fbit of a partially covered word")
	}
	// Zero of zero bytes touches nothing.
	m.Zero(0x5008, 0)
	if v, f := m.ReadWordFBit(0x5008); v != 0xBBBBBBBB00000000 || !f {
		t.Fatalf("Zero(_, 0) modified memory: (%#x,%v)", v, f)
	}
}

// The page front (MRU + victims) must never affect visibility:
// a miss on an untouched page (which returns zero without materializing)
// must not be cached as if the page existed, and a later write to that
// page must be observed by subsequent reads.
func TestPageCacheMaterializationVisibility(t *testing.T) {
	m := New()
	pageA := Addr(0x10000)
	pageB := Addr(0x20000)
	m.WriteWord(pageA, 111)
	if v := m.ReadWord(pageB); v != 0 {
		t.Fatalf("untouched page read %d", v)
	}
	if m.PagesTouched() != 1 {
		t.Fatalf("read materialized a page: %d", m.PagesTouched())
	}
	m.WriteWord(pageB, 222)
	if v := m.ReadWord(pageB); v != 222 {
		t.Fatalf("write to previously-missed page invisible: %d", v)
	}
	if v := m.ReadWord(pageA); v != 111 {
		t.Fatalf("page A lost after B materialized: %d", v)
	}
	if v := m.ReadWord(pageB); v != 222 {
		t.Fatalf("page B lost after re-reading A: %d", v)
	}
}

// Sweeping across more pages than the cache holds (MRU + 2 victims)
// must still read every word back, exercising victim promotion and
// table refill.
func TestPageCacheCrossPageSweep(t *testing.T) {
	m := New()
	const pages = 8
	for i := 0; i < pages; i++ {
		for w := 0; w < 4; w++ {
			a := Addr(i)*PageBytes + Addr(w*WordSize)
			m.WriteWord(a, uint64(i*100+w))
		}
	}
	check := func(order []int) {
		for _, i := range order {
			for w := 0; w < 4; w++ {
				a := Addr(i)*PageBytes + Addr(w*WordSize)
				if v := m.ReadWord(a); v != uint64(i*100+w) {
					t.Fatalf("page %d word %d = %d", i, w, v)
				}
			}
		}
	}
	check([]int{0, 1, 2, 3, 4, 5, 6, 7})
	check([]int{7, 6, 5, 4, 3, 2, 1, 0})
	check([]int{0, 4, 1, 5, 2, 6, 3, 7, 0, 7})
	if m.PagesTouched() != pages {
		t.Fatalf("PagesTouched = %d, want %d", m.PagesTouched(), pages)
	}
}

// Forwarding bits must stay coherent when their page cycles through the
// cache's MRU and victim slots.
func TestPageCacheFBitCoherence(t *testing.T) {
	m := New()
	pageA := Addr(0x100000)
	m.WriteWordFBit(pageA, 0x9000, true)
	// Push A out of MRU and through both victim slots.
	for i := 1; i <= 4; i++ {
		m.WriteWord(pageA+Addr(i)*PageBytes, uint64(i))
	}
	if !m.FBit(pageA) {
		t.Fatal("fbit lost after page cycled through the cache")
	}
	v, f := m.ReadWordFBit(pageA)
	if v != 0x9000 || !f {
		t.Fatalf("ReadWordFBit = (%#x,%v)", v, f)
	}
	m.WriteWordFBit(pageA, 7, false)
	for i := 1; i <= 4; i++ {
		m.WriteWord(pageA+Addr(i)*PageBytes, uint64(i))
	}
	if m.FBit(pageA) {
		t.Fatal("cleared fbit resurrected after eviction")
	}
}

// Property: for any word value and any naturally-aligned subword slot,
// writing then reading that slot round-trips, and the other bytes of the
// word are untouched.
func TestSubwordRoundTripProperty(t *testing.T) {
	m := New()
	f := func(word uint64, v uint64, slotSel uint8, sizeSel uint8) bool {
		sizes := []uint{1, 2, 4, 8}
		size := sizes[int(sizeSel)%4]
		slots := 8 / size
		off := Addr(uint(slotSel)%slots) * Addr(size)
		base := Addr(0x8000)
		m.WriteWord(base, word)
		if err := m.WriteData(base+off, v, size); err != nil {
			return false
		}
		mask := uint64(1)<<(size*8) - 1
		if size == 8 {
			mask = ^uint64(0)
		}
		got, err := m.ReadData(base+off, size)
		if err != nil || got != v&mask {
			return false
		}
		// Remaining bytes unchanged.
		full := m.ReadWord(base)
		shift := uint(off) * 8
		wantFull := (word &^ (mask << shift)) | ((v & mask) << shift)
		return full == wantFull
	}
	if err := quick.Check(f, quickseed.Config(t, 2000)); err != nil {
		t.Fatal(err)
	}
}

func TestPagesTouchedCountsDistinctPages(t *testing.T) {
	m := New()
	m.WriteWord(0, 1)
	m.WriteWord(8, 2)         // same page
	m.WriteWord(PageBytes, 3) // second page
	m.WriteWord(1<<30, 4)     // third page
	if m.PagesTouched() != 3 {
		t.Fatalf("PagesTouched = %d, want 3", m.PagesTouched())
	}
	// Reads of untouched pages must not materialize them.
	_ = m.ReadWord(1 << 40)
	if m.PagesTouched() != 3 {
		t.Fatalf("read materialized a page: %d", m.PagesTouched())
	}
}
