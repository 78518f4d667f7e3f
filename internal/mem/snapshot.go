package mem

import (
	"math/bits"
	"unsafe"

	"memfwd/internal/addrtab"
)

// Snapshot/Restore for the functional memory state. A snapshot is a
// process-local copy of the architectural state — the materialized
// pages (words + fbit bitmaps) of Memory in a frozen, compact form, and
// the full heap map (free/live/pinned + brk + accounting) for
// Allocator. It is a handle, not a serialized encoding: memfwd-serve
// holds snapshots inside one process, so an in-memory copy is both the
// simplest and the fastest faithful format (DESIGN.md §10).
//
// Snapshots are immutable once taken and reusable: Restore copies out
// of the snapshot again, so one snapshot can seed any number of target
// machines (e.g. a control replay plus a migration target).

// MemorySnapshot is a Memory's architectural state in frozen form.
// Every materialized page keeps its page number, its forwarding-bit
// bitmap and a bitmap of its nonzero words, in ascending page order,
// and the nonzero words of all pages are packed, page by page and in
// word order, into one shared slice. A page that holds one small block
// costs its two bitmaps and that block's words, not 4 KB. Restoring or
// encoding a snapshot only reads it, so concurrent restores and
// encoders may share one.
type MemorySnapshot struct {
	pages []frozenPage
	words []uint64
}

// frozenPage is one page of a MemorySnapshot.
type frozenPage struct {
	pn    uint64
	fbits [PageWords / 8]uint8
	nz    [PageWords / 64]uint64 // bit w%64 of nz[w/64] set: word w is nonzero
}

// expand writes fp's fbits and nonzero words, taken from the front of
// words, into the zero page p and returns the words left over.
func (fp *frozenPage) expand(p *page, words []uint64) []uint64 {
	p.fbits = fp.fbits
	for i, b := range fp.nz {
		for ; b != 0; b &= b - 1 {
			p.words[i*64+bits.TrailingZeros64(b)] = words[0]
			words = words[1:]
		}
	}
	return words
}

// Snapshot captures the memory's architectural state in frozen form.
func (m *Memory) Snapshot() *MemorySnapshot {
	refs := m.sortedPages()
	s := &MemorySnapshot{pages: make([]frozenPage, len(refs))}
	n := 0
	for i, r := range refs {
		fp := &s.pages[i]
		fp.pn, fp.fbits = uint64(r.pn), r.p.fbits
		for w, v := range r.p.words {
			if v != 0 {
				fp.nz[w/64] |= 1 << (w % 64)
				n++
			}
		}
	}
	s.words = make([]uint64, 0, n)
	for _, r := range refs {
		for _, v := range r.p.words {
			if v != 0 {
				s.words = append(s.words, v)
			}
		}
	}
	return s
}

// Restore replaces m's pages with the snapshot's, expanded into one
// backing array. The writeFault hook is left alone: fault injection is
// wiring of the target machine, not memory state.
func (m *Memory) Restore(s *MemorySnapshot) {
	backing := make([]page, len(s.pages))
	m.pages = addrtab.NewPages[page](len(s.pages))
	words := s.words
	for i := range s.pages {
		words = s.pages[i].expand(&backing[i], words)
		m.pages.Put(s.pages[i].pn, &backing[i])
	}
}

// Pages returns the number of materialized pages in the snapshot.
func (s *MemorySnapshot) Pages() int { return len(s.pages) }

// Bytes returns the bytes the snapshot's frozen pages and packed words
// occupy.
func (s *MemorySnapshot) Bytes() int {
	return len(s.pages)*int(unsafe.Sizeof(frozenPage{})) + len(s.words)*WordSize
}

// AllocatorSnapshot is a deep copy of an Allocator's heap state. The
// per-size free stacks are copied slice-by-slice so LIFO reuse order —
// which determines every future Alloc address — survives the round
// trip exactly.
type AllocatorSnapshot struct {
	base, brk, end Addr
	headerBytes    uint64
	free           map[uint64][]Addr
	live           map[Addr]uint64
	pinned         map[Addr]bool
	bytesAllocated uint64
	bytesLive      uint64
	peakLive       uint64
}

// Snapshot captures a deep copy of the allocator's state.
func (al *Allocator) Snapshot() *AllocatorSnapshot {
	s := &AllocatorSnapshot{
		base:           al.base,
		brk:            al.brk,
		end:            al.end,
		headerBytes:    al.HeaderBytes,
		free:           make(map[uint64][]Addr, len(al.free)),
		live:           make(map[Addr]uint64, len(al.live)),
		pinned:         make(map[Addr]bool, len(al.pinned)),
		bytesAllocated: al.BytesAllocated,
		bytesLive:      al.BytesLive,
		peakLive:       al.PeakLive,
	}
	for size, stack := range al.free {
		s.free[size] = append([]Addr(nil), stack...)
	}
	for a, n := range al.live {
		s.live[a] = n
	}
	for a, p := range al.pinned {
		s.pinned[a] = p
	}
	return s
}

// Restore replaces the allocator's heap state with a deep copy of the
// snapshot, including the reserved range and brk: a restored session
// must hand out the exact addresses the source would have. The backing
// Memory reference and the OnEvent hook belong to the target and are
// preserved.
func (al *Allocator) Restore(s *AllocatorSnapshot) {
	al.base, al.brk, al.end = s.base, s.brk, s.end
	al.HeaderBytes = s.headerBytes
	al.free = make(map[uint64][]Addr, len(s.free))
	for size, stack := range s.free {
		al.free[size] = append([]Addr(nil), stack...)
	}
	al.live = make(map[Addr]uint64, len(s.live))
	for a, n := range s.live {
		al.live[a] = n
	}
	al.pinned = make(map[Addr]bool, len(s.pinned))
	for a, p := range s.pinned {
		al.pinned[a] = p
	}
	al.BytesAllocated = s.bytesAllocated
	al.BytesLive = s.bytesLive
	al.PeakLive = s.peakLive
}
