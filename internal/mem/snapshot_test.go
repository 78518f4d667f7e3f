package mem

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"memfwd/internal/addrtab"
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

// denseSnapshot is the reference FuzzMemorySnapshot holds
// MemorySnapshot to: a copy of every materialized page, each page
// copied whole, as snapshots were held before the frozen form.
type denseSnapshot struct{ pages addrtab.Pages[page] }

// denseCopy copies every page of p whole into a new table.
func denseCopy(p *addrtab.Pages[page]) addrtab.Pages[page] {
	c := addrtab.NewPages[page](p.Len())
	p.Each(func(pn uint64, pg *page) { *c.Ensure(pn) = *pg })
	return c
}

func (s *denseSnapshot) restore(m *Memory) { m.pages = denseCopy(&s.pages) }

// encode writes the wire format from the dense pages: each page whole,
// in ascending page order, then the page count.
func (s *denseSnapshot) encode(w *wire.Writer) {
	m := &Memory{pages: s.pages}
	refs := m.sortedPages()
	w.U32(uint32(len(refs)))
	for _, r := range refs {
		w.U64(uint64(r.pn))
		for _, word := range r.p.words {
			w.U64(word)
		}
		for _, fb := range r.p.fbits {
			w.U8(fb)
		}
	}
	w.Int(len(refs))
}

// Page bases the fuzz programs write to: a run of heap pages with a
// gap, a relocation arena page, the page at 2^40, the first page, the
// page below 2 GiB and the last page of the address space.
var fuzzPages = [8]Addr{
	0x1000_0000, 0x1000_1000, 0x1000_3000, 0x4_0000_0000,
	1 << 40, 0, 0x7fff_f000, ^Addr(0) &^ (PageBytes - 1),
}

// sameMemory fails unless got and want have the same materialized
// pages holding the same words and forwarding bits.
func sameMemory(t *testing.T, what string, got, want *Memory) {
	t.Helper()
	gp, wp := got.TouchedPages(), want.TouchedPages()
	if !slices.Equal(gp, wp) || got.PagesTouched() != want.PagesTouched() {
		t.Fatalf("%s: pages %#x (%d touched), want %#x (%d touched)",
			what, gp, got.PagesTouched(), wp, want.PagesTouched())
	}
	for _, pb := range wp {
		for w := 0; w < PageWords; w++ {
			a := pb + Addr(w*WordSize)
			gv, gf := got.ReadWordFBit(a)
			wv, wf := want.ReadWordFBit(a)
			if gv != wv || gf != wf {
				t.Fatalf("%s: word %#x = (%#x,%v), want (%#x,%v)", what, a, gv, gf, wv, wf)
			}
		}
	}
}

// FuzzMemorySnapshot holds the frozen MemorySnapshot to the dense
// reference. A program of 4-byte instructions (op, page, word, value)
// writes nonzero words, zero words, whole pages of nonzero words, and
// sets and clears forwarding bits over sparse and far pages; its
// snapshot instruction takes a frozen and a dense snapshot of the
// memory as it stands, and the end of the program takes one more.
// Every pair must agree, after the writes that followed it, on
// Snapshot→Restore, on the EncodeWire bytes, and on the
// DecodeMemorySnapshot round trip, and the frozen form must occupy its
// bitmaps plus its nonzero words only.
func FuzzMemorySnapshot(f *testing.F) {
	const (
		opWord = iota
		opZero
		opFBitSet
		opFBitClear
		opFill
		opSnap
		nOps
	)
	f.Add([]byte{opFBitSet, 0, 3, 0, opSnap, 0, 0, 0, opWord, 0, 3, 7})                    // a zero word whose fbit is set
	f.Add([]byte{opZero, 4, 9, 0, opZero, 7, 255, 0, opWord, 1, 0, 1})                     // materialized all-zero pages
	f.Add([]byte{opFill, 3, 0, 5, opFBitSet, 3, 17, 0, opSnap, 0, 0, 0, opZero, 3, 17, 0}) // a fully dense page
	f.Add([]byte{opWord, 0, 0, 1, opWord, 0x80, 255, 2, opWord, 2, 64, 3, opFBitSet, 5, 1, 0,
		opSnap, 0, 0, 0, opFBitClear, 5, 1, 0, opZero, 0, 0, 0, opWord, 6, 128, 4}) // sparse and far pages
	f.Fuzz(func(t *testing.T, prog []byte) {
		const maxSteps = 256
		if len(prog) > 4*maxSteps {
			prog = prog[:4*maxSteps]
		}
		type pair struct {
			frozen *MemorySnapshot
			dense  *denseSnapshot
			bytes  []byte // the dense reference's encoding, taken at once
		}
		take := func(m *Memory) pair {
			d := &denseSnapshot{pages: denseCopy(&m.pages)}
			var w wire.Writer
			d.encode(&w)
			return pair{m.Snapshot(), d, w.Bytes()}
		}
		m := New()
		var pairs []pair
		for pc := 0; pc+3 < len(prog); pc += 4 {
			op, pg, word, val := prog[pc], prog[pc+1], prog[pc+2], prog[pc+3]
			base := fuzzPages[pg%8]
			a := base + Addr((int(word)<<1|int(pg>>7))*WordSize)
			switch op % nOps {
			case opWord:
				m.WriteWord(a, uint64(val+1)*0x9E3779B97F4A7C15)
			case opZero:
				m.WriteWord(a, 0)
			case opFBitSet, opFBitClear:
				v, _ := m.ReadWordFBit(a)
				m.WriteWordFBit(a, v, op%nOps == opFBitSet)
			case opFill:
				for w := 0; w < PageWords; w++ {
					m.WriteWord(base+Addr(w*WordSize), uint64(w+1)*(uint64(val)|1))
				}
			case opSnap:
				if len(pairs) < 4 {
					pairs = append(pairs, take(m))
				}
			}
		}
		pairs = append(pairs, take(m))
		for i, p := range pairs {
			want := New()
			p.dense.restore(want)
			got := New()
			got.Restore(p.frozen)
			sameMemory(t, fmt.Sprintf("snapshot %d restored", i), got, want)

			var w wire.Writer
			p.frozen.EncodeWire(&w)
			if !bytes.Equal(w.Bytes(), p.bytes) {
				t.Fatalf("snapshot %d: EncodeWire differs from the dense encoding", i)
			}
			r := wire.NewReader(w.Bytes())
			dec := DecodeMemorySnapshot(r)
			if err := r.Close(); err != nil {
				t.Fatalf("snapshot %d: decode: %v", i, err)
			}
			var w2 wire.Writer
			dec.EncodeWire(&w2)
			if !bytes.Equal(w2.Bytes(), p.bytes) {
				t.Fatalf("snapshot %d: decoded snapshot re-encodes differently", i)
			}
			fromDec := New()
			fromDec.Restore(dec)
			sameMemory(t, fmt.Sprintf("snapshot %d decoded and restored", i), fromDec, want)

			nonzero := 0
			want.pages.Each(func(_ uint64, pg *page) {
				for _, v := range pg.words {
					if v != 0 {
						nonzero++
					}
				}
			})
			if wantBytes := p.frozen.Pages()*int(unsafe.Sizeof(frozenPage{})) + nonzero*WordSize; p.frozen.Bytes() != wantBytes {
				t.Fatalf("snapshot %d: Bytes %d, want %d (%d pages, %d nonzero words)",
					i, p.frozen.Bytes(), wantBytes, p.frozen.Pages(), nonzero)
			}
		}
	})
}
