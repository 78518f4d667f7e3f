package mem

import (
	"fmt"
	"sort"
)

// Allocator is a word-aligned first-fit heap over a Memory, standing in
// for the C malloc/free the paper's applications use. Layout realism
// matters here: relocation-based optimizations exist precisely because
// malloc scatters logically-adjacent objects, so the allocator
// reproduces malloc-like behaviour — a bump pointer with per-block
// header padding, plus size-segregated free lists whose reuse
// interleaves objects of different lifetimes.
//
// All blocks are word-aligned (Section 3.3, "Memory Alignment":
// relocatable objects must be word-aligned so two objects never share a
// forwarding word).
type Allocator struct {
	m *Memory

	base Addr
	brk  Addr
	end  Addr

	// HeaderBytes of pad between blocks, modelling malloc boilerplate.
	// Zero for arenas used by relocation pools.
	HeaderBytes uint64

	// free maps rounded block size -> stack of free addresses (LIFO, as
	// in a typical freelist malloc).
	free map[uint64][]Addr

	// live maps block base -> usable size, to catch double frees and to
	// answer SizeOf.
	live map[Addr]uint64

	// pinned marks blocks owned by arenas/pools: they are live but must
	// never be freed through object-level deallocation (a relocated
	// object's final address may coincide with an arena base, and the
	// chain-freeing wrapper must not release the whole pool).
	pinned map[Addr]bool

	// Accounting for Table 1's "Space Overhead" column.
	BytesAllocated uint64 // cumulative
	BytesLive      uint64
	PeakLive       uint64

	// OnEvent, when non-nil, observes every "alloc" and "free" with the
	// block base and its rounded usable size. It fires *after* the
	// allocator's own bookkeeping, so a listener that inspects the
	// allocator (Live, SizeOf) sees a consistent post-state. This is the
	// single identity channel for heat attribution: every path that
	// creates or retires a block — timed Malloc/Free, untimed Alloc/Free,
	// arena carving — passes through here, so an address-reuse listener
	// (obs.HeatMap) can never be left holding a stale identity.
	OnEvent func(op string, a Addr, size uint64)

	// Place, when non-nil, is consulted by Alloc with the rounded block
	// size before the heap path runs. Returning a nonzero word-aligned
	// address places the block there instead of on the heap: the caller
	// owns that address space (in practice a tier window, carved by the
	// tiering daemon from its mem.Tiers arenas) and guarantees it is
	// fresh, zeroed, and never handed out twice. Placed blocks carry no
	// header and never enter the freelist — Free of one only retires its
	// identity — so window space is consumed bump-style, exactly like
	// relocation targets. Returning 0 means "no opinion": the block goes
	// on the heap as usual.
	Place func(size uint64) Addr

	// Track, when non-nil, is told the base of every block born (live
	// true) and retired (live false), on every path OnEvent sees and
	// after it. It is the tiering daemon's
	// hook, as Place is: the daemon's per-block records are born and
	// dropped with their blocks however the guest, an arena or the
	// chain-freeing Free reaches the allocator. OnEvent stays the heat
	// map's.
	Track func(a Addr, live bool)
}

// NewAllocator creates an allocator managing [base, base+limit).
func NewAllocator(m *Memory, base Addr, limit uint64) *Allocator {
	if base&WordMask != 0 {
		panic("mem: allocator base must be word-aligned")
	}
	return &Allocator{
		m:           m,
		base:        base,
		brk:         base,
		end:         base + Addr(limit),
		HeaderBytes: 2 * WordSize,
		free:        make(map[uint64][]Addr),
		live:        make(map[Addr]uint64),
		pinned:      make(map[Addr]bool),
	}
}

// roundSize rounds a request up to a whole number of words. Requests
// within a word of 2^64 cannot be rounded without wrapping to zero —
// no arena can hold them, so they panic as exhaustion rather than
// silently becoming zero-size blocks.
func roundSize(n uint64) uint64 {
	if n == 0 {
		n = WordSize
	}
	if n > ^uint64(0)-(WordSize-1) {
		panic(fmt.Sprintf("mem: arena exhausted (allocation size %#x overflows word rounding)", n))
	}
	return (n + WordSize - 1) &^ uint64(WordMask)
}

// Alloc returns the base address of a zeroed block of at least n bytes.
// It panics if the arena is exhausted, which indicates a mis-sized
// experiment rather than a recoverable guest condition.
func (al *Allocator) Alloc(n uint64) Addr {
	size := roundSize(n)
	if al.Place != nil {
		if p := al.Place(size); p != 0 {
			if p&WordMask != 0 {
				panic(fmt.Sprintf("mem: Place hook returned unaligned address %#x", p))
			}
			if al.Contains(p) {
				panic(fmt.Sprintf("mem: Place hook returned in-heap address %#x", p))
			}
			return al.born(p, size)
		}
	}
	var a Addr
	if stack := al.free[size]; len(stack) > 0 {
		a = stack[len(stack)-1]
		al.free[size] = stack[:len(stack)-1]
		al.m.Zero(a, size)
	} else {
		a = al.brk
		need := size + al.HeaderBytes
		if need < size || al.brk+Addr(need) < al.brk || al.brk+Addr(need) > al.end {
			panic(fmt.Sprintf("mem: arena exhausted (%#x bytes at brk %#x, end %#x)", need, al.brk, al.end))
		}
		al.brk += Addr(need)
		// Fresh pages are already zero with clear fbits; no Zero needed.
	}
	return al.born(a, size)
}

// born accounts a new live block of size bytes at a and tells the
// hooks.
func (al *Allocator) born(a Addr, size uint64) Addr {
	al.live[a] = size
	al.BytesAllocated += size
	al.BytesLive += size
	if al.BytesLive > al.PeakLive {
		al.PeakLive = al.BytesLive
	}
	if al.OnEvent != nil {
		al.OnEvent("alloc", a, size)
	}
	if al.Track != nil {
		al.Track(a, true)
	}
	return a
}

// Free returns the block at a to the free list. Freeing an unknown or
// already-freed address panics: guest programs are deterministic and a
// bad free is a bug in the reproduction, not a runtime condition.
func (al *Allocator) Free(a Addr) {
	size, ok := al.live[a]
	if !ok {
		panic(fmt.Sprintf("mem: free of unallocated address %#x", a))
	}
	if al.pinned[a] {
		panic(fmt.Sprintf("mem: free of pinned (arena) block %#x", a))
	}
	delete(al.live, a)
	al.BytesLive -= size
	// Placed (out-of-heap) blocks never re-enter circulation: their
	// window space is bump-only, like relocation targets.
	if al.Contains(a) {
		al.free[size] = append(al.free[size], a)
	}
	if al.OnEvent != nil {
		al.OnEvent("free", a, size)
	}
	if al.Track != nil {
		al.Track(a, false)
	}
}

// SizeOf returns the usable size of the live block at a.
func (al *Allocator) SizeOf(a Addr) (uint64, bool) {
	n, ok := al.live[a]
	return n, ok
}

// Live reports whether a is the base of a live block.
func (al *Allocator) Live(a Addr) bool {
	_, ok := al.live[a]
	return ok
}

// Pin marks the live block at a as arena-owned: Free of it panics, and
// Freeable reports false. NewArena pins its backing block.
func (al *Allocator) Pin(a Addr) {
	if _, ok := al.live[a]; !ok {
		panic(fmt.Sprintf("mem: pin of unallocated address %#x", a))
	}
	al.pinned[a] = true
}

// Freeable reports whether a is the base of a live block that object
// deallocation may release (live and not arena-pinned).
func (al *Allocator) Freeable(a Addr) bool {
	_, ok := al.live[a]
	return ok && !al.pinned[a]
}

// Brk returns the current high-water address of the arena.
func (al *Allocator) Brk() Addr { return al.brk }

// Contains reports whether a falls inside the arena's reserved range.
func (al *Allocator) Contains(a Addr) bool { return a >= al.base && a < al.end }

// Range returns the reserved address range [base, end) of the heap.
// The chaos relocator places its target storage outside this range so
// adversarial relocation never perturbs guest allocation addresses.
func (al *Allocator) Range() (base, end Addr) { return al.base, al.end }

// Pinned reports whether a is the base of an arena-pinned block.
func (al *Allocator) Pinned(a Addr) bool { return al.pinned[a] }

// LiveBlocks returns the sorted bases of all live blocks. The heap
// digest and the snapshot comparison walk them in this order; a caller
// that does not need an order should use EachLive.
func (al *Allocator) LiveBlocks() []Addr {
	out := make([]Addr, 0, len(al.live))
	for a := range al.live {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EachLive calls f with the base and usable size of every live block,
// in no particular order, without allocating. f must not allocate or
// free blocks.
func (al *Allocator) EachLive(f func(a Addr, size uint64)) {
	for a, n := range al.live {
		f(a, n)
	}
}

// Arena is a bump-only contiguous allocator used for relocation pools:
// ListLinearize and friends allocate target storage from "a pool of
// contiguous memory, thereby creating spatial locality" (Figure 4b). It
// draws its backing range from the parent allocator's address space but
// never frees individual blocks; Reset recycles the whole pool.
type Arena struct {
	base Addr
	next Addr
	end  Addr
}

// NewArena carves an n-byte contiguous arena out of an allocator's
// address space (as a single block, so the parent can account for it).
func NewArena(al *Allocator, n uint64) *Arena {
	save := al.HeaderBytes
	al.HeaderBytes = 0
	base := al.Alloc(n)
	al.HeaderBytes = save
	al.Pin(base)
	return &Arena{base: base, next: base, end: base + Addr(n)}
}

// NewArenaAt lays an arena directly over [base, base+n) without drawing
// from any allocator. Tier windows live outside the guest heap's
// reserved range, so their arenas cannot be carved from the heap
// allocator; they are raw address-space regions backed, like all of
// Memory, by demand-zero pages.
func NewArenaAt(base Addr, n uint64) *Arena {
	if base&WordMask != 0 {
		panic("mem: arena base must be word-aligned")
	}
	return &Arena{base: base, next: base, end: base + Addr(n)}
}

// Alloc returns n contiguous word-aligned bytes, or 0 if the arena is
// exhausted (callers fall back to a fresh arena). The comparison is
// phrased against Remaining so a request within a word of 2^64 cannot
// wrap the cursor past end and "succeed".
func (ar *Arena) Alloc(n uint64) Addr {
	size := roundSize(n)
	if size > ar.Remaining() {
		return 0
	}
	a := ar.next
	ar.next += Addr(size)
	return a
}

// AlignTo advances the arena cursor to the next multiple of align
// (a power of two), so the following Alloc starts a fresh cache line or
// cluster. Wasted bytes are simply skipped. If the aligned position
// falls beyond the arena's end, the cursor advances to the end instead:
// the arena is exhausted and the next Alloc returns 0, rather than
// quietly handing out a block that violates the alignment the caller
// just requested.
func (ar *Arena) AlignTo(align uint64) {
	if align == 0 || align&(align-1) != 0 {
		panic("mem: AlignTo requires a power of two")
	}
	next := (uint64(ar.next) + align - 1) &^ (align - 1)
	if Addr(next) > ar.end {
		ar.next = ar.end
		return
	}
	ar.next = Addr(next)
}

// Remaining returns the bytes left in the arena.
func (ar *Arena) Remaining() uint64 { return uint64(ar.end - ar.next) }

// Used returns the bytes consumed so far.
func (ar *Arena) Used() uint64 { return uint64(ar.next - ar.base) }

// Base returns the arena's first address.
func (ar *Arena) Base() Addr { return ar.base }
