package cache

import (
	"bytes"
	"math/rand"
	"testing"

	"memfwd/internal/wire"
)

// twin is an L1 -> L2 -> main memory hierarchy beside the same
// hierarchy built from the reference model (ref_test.go).
type twin struct {
	l1, l2 *Cache
	mm     *MainMemory
	r1, r2 *refCache
	rm     *refMainMemory
}

// newTwin reads the hierarchy's shape from the first bytes of prog:
// 1–4 ways, 1–4 MSHRs and a handful of sets per level, so MSHR stalls,
// dropped prefetches and evictions with a fill in flight are common.
// One level in eight gets MaxMSHRs, so the top slots of the orphan
// mask are reached too.
func newTwin(prog []byte) (*twin, []byte) {
	var hdr [7]byte
	copy(hdr[:], prog)
	prog = prog[min(len(prog), len(hdr)):]
	lineSize := 16 << (hdr[0] % 3)
	level := func(name string, ways, sets, mshrs byte, hit int64) Config {
		assoc := int(ways%4) + 1
		return Config{
			Name: name, SizeBytes: lineSize * assoc * (1 << (sets % 3)), LineSize: lineSize,
			Assoc: assoc, HitLatency: hit, MSHRs: [8]int{1, 2, 3, 4, 1, 2, 3, MaxMSHRs}[mshrs%8],
			TransferBytesPerCycle: 8 << (hdr[0] / 3 % 2),
		}
	}
	l1cfg := level("L1", hdr[1], hdr[2], hdr[3], 1)
	l2cfg := level("L2", hdr[4], hdr[5]+1, hdr[6], 10)
	const memLat = 70
	bus := 4 << (hdr[6] / 4 % 3)

	t := &twin{mm: NewMainMemory(memLat, bus, lineSize)}
	t.l2 = New(l2cfg, nil, t.mm)
	t.l1 = New(l1cfg, t.l2, nil)
	t.rm = &refMainMemory{Latency: memLat, BytesPerCycle: bus, LineSize: lineSize}
	t.r2 = newRefCache(l2cfg, t.rm)
	t.r1 = newRefCache(l1cfg, t.r2)
	return t, prog
}

// restore moves the hierarchy through its snapshot encoding into fresh
// caches, and the reference through a deep copy.
func (t *twin) restore(tb testing.TB) {
	var w wire.Writer
	t.l1.Snapshot().EncodeWire(&w)
	t.l2.Snapshot().EncodeWire(&w)
	mms := t.mm.Snapshot()
	mms.EncodeWire(&w)
	r := wire.NewReader(w.Bytes())
	s1, s2, sm := DecodeCacheSnapshot(r), DecodeCacheSnapshot(r), DecodeMainMemorySnapshot(r)
	if err := r.Close(); err != nil {
		tb.Fatalf("decode: %v", err)
	}
	mm := NewMainMemory(t.mm.latency, t.mm.bytesPerCycle, t.mm.lineSize)
	l2 := New(t.l2.cfg, nil, mm)
	l1 := New(t.l1.cfg, l2, nil)
	for _, err := range []error{mm.Restore(sm), l2.Restore(s2), l1.Restore(s1)} {
		if err != nil {
			tb.Fatalf("restore: %v", err)
		}
	}
	t.l1, t.l2, t.mm = l1, l2, mm

	rm := *t.rm
	t.rm = &rm
	t.r2 = t.r2.clone(t.rm)
	t.r1 = t.r1.clone(t.r2)
}

// check compares both levels' Stats and the encoding of every level.
func (t *twin) check(tb testing.TB, step int) {
	for _, lv := range []struct {
		c *Cache
		r *refCache
	}{{t.l1, t.r1}, {t.l2, t.r2}} {
		if lv.c.Stats != lv.r.Stats {
			tb.Fatalf("step %d: %s stats\n got %+v\nwant %+v", step, lv.c.cfg.Name, lv.c.Stats, lv.r.Stats)
		}
		var got, want wire.Writer
		lv.c.Snapshot().EncodeWire(&got)
		lv.r.encode(&want)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			tb.Fatalf("step %d: %s encoding differs", step, lv.c.cfg.Name)
		}
	}
	if t.mm.BytesRead != t.rm.BytesRead || t.mm.BytesWritten != t.rm.BytesWritten {
		tb.Fatalf("step %d: memory read/written %d/%d, want %d/%d", step,
			t.mm.BytesRead, t.mm.BytesWritten, t.rm.BytesRead, t.rm.BytesWritten)
	}
	var got, want wire.Writer
	ms := t.mm.Snapshot()
	ms.EncodeWire(&got)
	t.rm.encode(&want)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		tb.Fatalf("step %d: main memory encoding differs", step)
	}
}

// runTwin interprets prog, three bytes per operation (kind, address,
// time step), on both hierarchies and compares them after every one.
// The time step is signed, so access times go backwards as store
// drains and loads interleave in the machine.
func runTwin(tb testing.TB, prog []byte) {
	t, prog := newTwin(prog)
	ls := uint64(t.l1.cfg.LineSize)
	now := int64(1000)
	for step := 0; len(prog) >= 3; step++ {
		op, ab, db := prog[0], prog[1], prog[2]
		prog = prog[3:]
		a := 0x10000 + uint64(ab&31)*ls + uint64(ab>>5)*8%ls
		now += int64(int8(db))
		if now < 0 {
			now = 0
		}
		access := func(c *Cache, r *refCache, kind Kind) {
			gr, gout := c.Access(a, kind, now)
			wr, wout := r.Access(a, kind, now)
			if gr != wr || gout != wout {
				tb.Fatalf("step %d: %s %v @%#x t=%d: got (%d, %v), want (%d, %v)",
					step, c.cfg.Name, kind, a, now, gr, gout, wr, wout)
			}
		}
		switch op % 10 {
		case 0, 1:
			access(t.l1, t.r1, Load)
		case 2:
			access(t.l1, t.r1, Store)
		case 3:
			t.l1.PrefetchLine(a, now)
			t.r1.PrefetchLine(a, now)
		case 4:
			access(t.l2, t.r2, Kind(op/10%2))
		case 5:
			t.l1.WriteBack(a&^(ls-1), now)
			t.r1.WriteBack(a&^(ls-1), now)
		case 6:
			t.l2.WriteBack(a&^(ls-1), now)
			t.r2.WriteBack(a&^(ls-1), now)
		case 7:
			if got, want := t.l1.Invalidate(a), t.r1.Invalidate(a); got != want {
				tb.Fatalf("step %d: L1 invalidate %#x = %v, want %v", step, a, got, want)
			}
		case 8:
			if got, want := t.l2.Invalidate(a), t.r2.Invalidate(a); got != want {
				tb.Fatalf("step %d: L2 invalidate %#x = %v, want %v", step, a, got, want)
			}
		case 9:
			t.restore(tb)
		}
		t.check(tb, step)
	}
}

// FuzzCacheDifferential holds the cache model — the per-line MSHR index
// with its orphan set, the field-split line arrays, the concrete next
// level and the precomputed transfer costs — to the scan-based
// reference it replaced, over random hierarchies and operation streams
// whose timestamps go backwards.
func FuzzCacheDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 48; i++ {
		prog := make([]byte, 7+3*400)
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { runTwin(t, prog) })
}
