package mem

// Binary codec for the mem snapshots, built on internal/wire. These
// feed the sim.MachineState codec: snapshot fields are private, so
// each package serializes its own. Encodings are canonical — map keys
// are emitted in sorted order — so encoding the same state twice
// yields identical bytes, and decode validates every structural
// invariant (page alignment, ordering, count bounds) so a corrupted
// snapshot surfaces as an error from the decoder, never a panic or a
// malformed Memory downstream.

import (
	"fmt"
	"sort"

	"memfwd/internal/wire"
)

// pageEncBytes is the encoded size of one page record: page number +
// words + fbit bitmap. Used as the Count element bound.
const pageEncBytes = 8 + PageWords*8 + PageWords/8

// EncodeWire appends the snapshot's canonical encoding to w: every
// page whole, as the dense page it stands for.
func (s *MemorySnapshot) EncodeWire(w *wire.Writer) {
	w.Grow(4 + len(s.pages)*pageEncBytes + 8)
	w.U32(uint32(len(s.pages)))
	words := s.words
	for i := range s.pages {
		var p page
		words = s.pages[i].expand(&p, words)
		w.U64(s.pages[i].pn)
		for _, word := range p.words {
			w.U64(word)
		}
		for _, fb := range p.fbits {
			w.U8(fb)
		}
	}
	w.Int(len(s.pages)) // pages touched
}

// DecodeMemorySnapshot reads a snapshot encoded by EncodeWire straight
// into frozen form. Errors latch on r; the returned snapshot is only
// valid if r reports no error.
func DecodeMemorySnapshot(r *wire.Reader) *MemorySnapshot {
	n := r.Count(pageEncBytes)
	recs := r.Raw(n * pageEncBytes)
	s := &MemorySnapshot{pages: make([]frozenPage, n)}
	// Two passes over the page records: the first validates them and
	// counts the nonzero words, so the second packs those words into a
	// slice of exactly their number.
	pr := wire.NewReader(recs)
	nw := 0
	for i := range s.pages {
		fp := &s.pages[i]
		fp.pn = pr.U64()
		if i > 0 && fp.pn <= s.pages[i-1].pn {
			r.Failf("mem: page numbers out of order (%#x after %#x)", fp.pn, s.pages[i-1].pn)
			return s
		}
		if fp.pn > uint64(^Addr(0)>>PageShift) {
			r.Failf("mem: page number %#x outside the address space", fp.pn)
			return s
		}
		for w := 0; w < PageWords; w++ {
			if pr.U64() != 0 {
				fp.nz[w/64] |= 1 << (w % 64)
				nw++
			}
		}
		copy(fp.fbits[:], pr.Raw(len(fp.fbits)))
	}
	s.words = make([]uint64, 0, nw)
	pr = wire.NewReader(recs)
	for range s.pages {
		pr.U64()
		for w := 0; w < PageWords; w++ {
			if v := pr.U64(); v != 0 {
				s.words = append(s.words, v)
			}
		}
		pr.Raw(PageWords / 8)
	}
	// Pages touched counts materialized pages and pages are never
	// unmapped, so it must equal the page count exactly.
	if touched := r.Int(); r.Err() == nil && touched != n {
		r.Failf("mem: pagesTouched %d != %d pages", touched, n)
	}
	return s
}

// EncodeWire appends the allocator snapshot's canonical encoding to w.
func (s *AllocatorSnapshot) EncodeWire(w *wire.Writer) {
	w.U64(uint64(s.base))
	w.U64(uint64(s.brk))
	w.U64(uint64(s.end))
	w.U64(s.headerBytes)

	// Free stacks: sorted by size class; each stack kept in order —
	// LIFO reuse determines every future Alloc address.
	sizes := make([]uint64, 0, len(s.free))
	for size := range s.free {
		sizes = append(sizes, size)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	w.U32(uint32(len(sizes)))
	for _, size := range sizes {
		stack := s.free[size]
		w.U64(size)
		w.U32(uint32(len(stack)))
		for _, a := range stack {
			w.U64(uint64(a))
		}
	}

	lives := make([]Addr, 0, len(s.live))
	for a := range s.live {
		lives = append(lives, a)
	}
	sort.Slice(lives, func(i, j int) bool { return lives[i] < lives[j] })
	w.U32(uint32(len(lives)))
	for _, a := range lives {
		w.U64(uint64(a))
		w.U64(s.live[a])
	}

	pins := make([]Addr, 0, len(s.pinned))
	for a := range s.pinned {
		pins = append(pins, a)
	}
	sort.Slice(pins, func(i, j int) bool { return pins[i] < pins[j] })
	w.U32(uint32(len(pins)))
	for _, a := range pins {
		w.U64(uint64(a))
		w.Bool(s.pinned[a])
	}

	w.U64(s.bytesAllocated)
	w.U64(s.bytesLive)
	w.U64(s.peakLive)
}

// DecodeAllocatorSnapshot reads a snapshot encoded by EncodeWire.
func DecodeAllocatorSnapshot(r *wire.Reader) *AllocatorSnapshot {
	s := &AllocatorSnapshot{
		base:        Addr(r.U64()),
		brk:         Addr(r.U64()),
		end:         Addr(r.U64()),
		headerBytes: r.U64(),
	}
	if r.Err() == nil && (s.base&WordMask != 0 || s.brk < s.base || s.end < s.brk) {
		r.Failf("mem: allocator range base=%#x brk=%#x end=%#x invalid", s.base, s.brk, s.end)
		return s
	}

	nSizes := r.Count(12)
	s.free = make(map[uint64][]Addr, nSizes)
	prevSize := uint64(0)
	for i := 0; i < nSizes; i++ {
		size := r.U64()
		if r.Err() != nil {
			return s
		}
		if i > 0 && size <= prevSize {
			r.Failf("mem: free size classes out of order (%d after %d)", size, prevSize)
			return s
		}
		prevSize = size
		nStack := r.Count(8)
		stack := make([]Addr, 0, nStack)
		for j := 0; j < nStack; j++ {
			stack = append(stack, Addr(r.U64()))
		}
		s.free[size] = stack
	}

	nLive := r.Count(16)
	s.live = make(map[Addr]uint64, nLive)
	prevA := Addr(0)
	for i := 0; i < nLive; i++ {
		a := Addr(r.U64())
		if r.Err() != nil {
			return s
		}
		if i > 0 && a <= prevA {
			r.Failf("mem: live addresses out of order (%#x after %#x)", a, prevA)
			return s
		}
		prevA = a
		s.live[a] = r.U64()
	}

	nPin := r.Count(9)
	s.pinned = make(map[Addr]bool, nPin)
	prevA = 0
	for i := 0; i < nPin; i++ {
		a := Addr(r.U64())
		if r.Err() != nil {
			return s
		}
		if i > 0 && a <= prevA {
			r.Failf("mem: pinned addresses out of order (%#x after %#x)", a, prevA)
			return s
		}
		prevA = a
		s.pinned[a] = r.Bool()
	}

	s.bytesAllocated = r.U64()
	s.bytesLive = r.U64()
	s.peakLive = r.U64()
	return s
}

// ValidateTierConfig checks cfg against the exact conditions NewTiers
// panics on, returning an error instead — the decode path must be able
// to reject a corrupted tier config without building it.
func ValidateTierConfig(cfg *TierConfig) error {
	n := len(cfg.Latencies)
	if n < 2 {
		return errTierf("a tiered memory needs at least 2 tiers, got %d", n)
	}
	if len(cfg.Capacities) != n {
		return errTierf("%d latencies but %d capacities", n, len(cfg.Capacities))
	}
	for i := 0; i < n; i++ {
		if cfg.Latencies[i] <= 0 {
			return errTierf("tier %d latency %d must be positive", i, cfg.Latencies[i])
		}
		if i > 0 && cfg.Latencies[i] < cfg.Latencies[i-1] {
			return errTierf("latencies must be non-decreasing (tier %d: %d < %d)",
				i, cfg.Latencies[i], cfg.Latencies[i-1])
		}
		if c := cfg.Capacities[i]; c == 0 || c&WordMask != 0 || c > maxTierCapacity {
			return errTierf("tier %d capacity %#x must be word-aligned, nonzero, and at most %#x",
				i, c, maxTierCapacity)
		}
	}
	return nil
}

func errTierf(format string, args ...any) error {
	return fmt.Errorf("mem: tier config: "+format, args...)
}
