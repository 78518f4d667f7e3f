package mem

import (
	"bytes"
	"sync"
	"testing"

	"memfwd/internal/wire"
)

// TestMemorySnapshotRoundTrip pins the deep-copy contract: a snapshot
// is unaffected by later mutation of the source, Restore reproduces
// every word and fbit exactly, and a snapshot is reusable.
func TestMemorySnapshotRoundTrip(t *testing.T) {
	m := New()
	// Pattern spanning several pages, with fbits on a scatter of words.
	for i := 0; i < 4*PageWords; i += 3 {
		a := Addr(0x1000_0000 + i*WordSize)
		m.WriteWordFBit(a, uint64(i)*0x9E37+1, i%5 == 0)
	}
	// A far page, to exercise sparse map copying.
	m.WriteWordFBit(0x7000_0000, 0xDEAD_BEEF, true)

	type cell struct {
		a Addr
		v uint64
		f bool
	}
	var want []cell
	for _, pb := range m.TouchedPages() {
		for w := 0; w < PageWords; w++ {
			a := pb + Addr(w*WordSize)
			v, f := m.ReadWordFBit(a)
			want = append(want, cell{a, v, f})
		}
	}
	wantTouched := m.PagesTouched()

	s := m.Snapshot()

	// Mutate the source: overwrite captured words, touch new pages.
	m.WriteWordFBit(0x1000_0000, 0, false)
	m.WriteWordFBit(0x7000_0000, 1, false)
	m.WriteWord(0x9000_0000, 42)

	check := func(got *Memory) {
		t.Helper()
		if got.PagesTouched() != wantTouched {
			t.Fatalf("PagesTouched = %d, want %d", got.PagesTouched(), wantTouched)
		}
		if len(got.TouchedPages()) != s.Pages() {
			t.Fatalf("restored %d pages, snapshot has %d", len(got.TouchedPages()), s.Pages())
		}
		for _, c := range want {
			v, f := got.ReadWordFBit(c.a)
			if v != c.v || f != c.f {
				t.Fatalf("word %#x = (%#x,%v), want (%#x,%v)", c.a, v, f, c.v, c.f)
			}
		}
	}

	fresh := New()
	fresh.Restore(s)
	check(fresh)

	// Restoring over the mutated source must also converge, and the
	// page cache must not serve stale pre-restore pages.
	m.Restore(s)
	check(m)

	// Snapshot reuse: mutating one restored memory must not leak into
	// another restore of the same snapshot.
	fresh.WriteWord(0x1000_0000, 0xFFFF)
	again := New()
	again.Restore(s)
	check(again)
}

// TestAllocatorSnapshotRoundTrip pins that Restore reproduces the
// allocator's future behaviour exactly — in particular the LIFO order
// of per-size free stacks, which determines every reuse address.
func TestAllocatorSnapshotRoundTrip(t *testing.T) {
	m := New()
	al := NewAllocator(m, 0x1000_0000, 1<<20)
	a := al.Alloc(64)
	b := al.Alloc(64)
	c := al.Alloc(64)
	d := al.Alloc(128)
	al.Free(a)
	al.Free(c) // free stack for 64: [a, c] — LIFO pops c first
	al.Pin(d)

	s := al.Snapshot()

	// Drain the source's free stack to verify the expected pop order,
	// then confirm the snapshot still replays the same order elsewhere.
	if got := al.Alloc(64); got != c {
		t.Fatalf("source pop 1 = %#x, want %#x", got, c)
	}
	if got := al.Alloc(64); got != a {
		t.Fatalf("source pop 2 = %#x, want %#x", got, a)
	}
	srcBump := al.Alloc(8) // brk allocation after the stack drains

	m2 := New()
	al2 := NewAllocator(m2, 0x1000_0000, 1<<20)
	al2.Restore(s)
	if !al2.Live(b) || !al2.Live(d) || al2.Live(a) || al2.Live(c) {
		t.Fatalf("restored live set wrong")
	}
	if !al2.Pinned(d) || al2.Freeable(d) {
		t.Fatalf("restored pin state wrong")
	}
	if got := al2.Alloc(64); got != c {
		t.Fatalf("restored pop 1 = %#x, want %#x", got, c)
	}
	if got := al2.Alloc(64); got != a {
		t.Fatalf("restored pop 2 = %#x, want %#x", got, a)
	}
	if got := al2.Alloc(8); got != srcBump {
		t.Fatalf("restored brk alloc = %#x, source got %#x", got, srcBump)
	}
	if al2.BytesAllocated != al.BytesAllocated || al2.BytesLive != al.BytesLive || al2.PeakLive != al.PeakLive {
		t.Fatalf("restored accounting diverged: %d/%d/%d vs %d/%d/%d",
			al2.BytesAllocated, al2.BytesLive, al2.PeakLive,
			al.BytesAllocated, al.BytesLive, al.PeakLive)
	}
}

// A held snapshot is read by concurrent restores and encoders (the
// session server restores one snapshot onto several shards while its
// store encodes it), so neither may write it — not even the page
// table's front. Run under -race.
func TestSnapshotConcurrentReaders(t *testing.T) {
	m := New()
	for i := 0; i < 16; i++ {
		m.WriteWordFBit(Addr(i)*3*PageBytes, uint64(i)+1, i%2 == 0)
	}
	s := m.Snapshot()
	var want wire.Writer
	s.EncodeWire(&want)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w wire.Writer
			s.EncodeWire(&w)
			if !bytes.Equal(w.Bytes(), want.Bytes()) {
				t.Error("concurrent encode differs")
			}
			r := New()
			r.Restore(s)
			if v, f := r.ReadWordFBit(6 * PageBytes); v != 3 || !f {
				t.Errorf("restored word = (%d,%v), want (3,true)", v, f)
			}
		}()
	}
	wg.Wait()
}
