// Package mem implements the tagged-memory substrate required by memory
// forwarding (Luk & Mowry, ISCA 1999, Section 2.1): a sparse 64-bit
// simulated address space in which every 64-bit word carries a one-bit
// tag (the "forwarding bit") distinguishing forwarding addresses from
// ordinary data.
//
// This package is purely functional state: it knows nothing about
// forwarding semantics (internal/core), caches, or timing. It provides
// word and subword access, the forwarding-bit bitmap, and a word-aligned
// allocator.
package mem

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"memfwd/internal/addrtab"
)

// Addr is a simulated 64-bit virtual address.
type Addr uint64

// Word geometry of the simulated machine. The paper assumes a 64-bit
// architecture: forwarding operates at the granularity of one pointer,
// i.e. one 8-byte word.
const (
	WordSize  = 8 // bytes per word
	WordShift = 3
	WordMask  = WordSize - 1

	PageShift = 12 // 4 KB pages
	PageBytes = 1 << PageShift
	PageWords = PageBytes / WordSize
	pageMask  = PageBytes - 1
)

// WordAlign rounds a down to its containing word boundary.
func WordAlign(a Addr) Addr { return a &^ WordMask }

// WordOffset returns the byte offset of a within its word.
func WordOffset(a Addr) uint { return uint(a & WordMask) }

// ErrUnaligned is returned for accesses that are not naturally aligned
// for their size (guest programs keep natural alignment, as C compilers
// guarantee for scalar fields).
var ErrUnaligned = errors.New("mem: unaligned access")

type page struct {
	words [PageWords]uint64
	fbits [PageWords / 8]uint8
}

func (p *page) fbit(w uint) bool { return p.fbits[w>>3]&(1<<(w&7)) != 0 }
func (p *page) setFbit(w uint)   { p.fbits[w>>3] |= 1 << (w & 7) }
func (p *page) clearFbit(w uint) { p.fbits[w>>3] &^= 1 << (w & 7) }
func (p *page) putFbit(w uint, b bool) {
	if b {
		p.setFbit(w)
	} else {
		p.clearFbit(w)
	}
}

// Memory is a sparse paged 64-bit address space with one forwarding bit
// per word. Pages materialize on first touch, zero-filled with all
// forwarding bits clear — this models the operating system's
// Unforwarded_Write(0,0) initialization obligation from Section 3.3 of
// the paper.
//
// Pages sit in an addrtab.Pages table, whose MRU page and victim file
// resolve the hot word/fbit accessors without a probe or any
// allocation. Memory is not safe for concurrent use — that front
// mutates on reads.
type Memory struct {
	pages addrtab.Pages[page]

	// writeFault, when non-nil, intercepts every WriteWordFBit — the
	// Unforwarded_Write storage path — and may corrupt the value or the
	// forwarding bit before they land (fault injection; see
	// internal/fault). Ordinary data stores (WriteWord/WriteData) are
	// not interposed: the fault surface under study is the relocation
	// instrument, not the whole memory system.
	writeFault func(a Addr, v uint64, fbit bool) (uint64, bool)
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: addrtab.NewPages[page](0)}
}

// lookup returns the page containing a if it has been touched, else
// nil.
func (m *Memory) lookup(a Addr) *page { return m.pages.Get(uint64(a >> PageShift)) }

// page returns the page containing a, materializing it on first touch.
func (m *Memory) page(a Addr) *page { return m.pages.Ensure(uint64(a >> PageShift)) }

// PagesTouched returns the number of pages materialized so far; it
// backs the space-overhead accounting in Table 1.
func (m *Memory) PagesTouched() int { return m.pages.Len() }

func wordIndex(a Addr) uint { return uint((a & pageMask) >> WordShift) }

// ReadWord returns the raw 64-bit word containing a (a is word-aligned
// by the caller or rounded down here). No forwarding interpretation.
func (m *Memory) ReadWord(a Addr) uint64 {
	p := m.lookup(a)
	if p == nil {
		return 0
	}
	return p.words[wordIndex(a)]
}

// WriteWord stores a raw 64-bit word at the word containing a, leaving
// the forwarding bit unchanged.
func (m *Memory) WriteWord(a Addr, v uint64) {
	m.page(a).words[wordIndex(a)] = v
}

// FBit reports the forwarding bit of the word containing a. This is the
// state inspected by the Read_FBit ISA extension (Figure 3).
func (m *Memory) FBit(a Addr) bool {
	p := m.lookup(a)
	if p == nil {
		return false
	}
	return p.fbit(wordIndex(a))
}

// WriteWordFBit atomically stores v and the forwarding bit at the word
// containing a. This is the storage effect of the Unforwarded_Write ISA
// extension (Figure 3): "an Unforwarded_Write must change the word and
// its forwarding bit atomically".
func (m *Memory) WriteWordFBit(a Addr, v uint64, fbit bool) {
	if m.writeFault != nil {
		v, fbit = m.writeFault(a, v, fbit)
	}
	p := m.page(a)
	w := wordIndex(a)
	p.words[w] = v
	p.putFbit(w, fbit)
}

// SetWriteFault installs (or, with nil, removes) the write-fault hook
// consulted by WriteWordFBit. The hook may panic to model a crash at
// the instruction boundary before the write; the write then never
// lands.
func (m *Memory) SetWriteFault(f func(a Addr, v uint64, fbit bool) (uint64, bool)) {
	m.writeFault = f
}

// ReadWordFBit returns both the raw word and its forwarding bit, the
// storage effect of Unforwarded_Read (Figure 3).
func (m *Memory) ReadWordFBit(a Addr) (uint64, bool) {
	p := m.lookup(a)
	if p == nil {
		return 0, false
	}
	w := wordIndex(a)
	return p.words[w], p.fbit(w)
}

// checkAlign validates natural alignment for a subword access of the
// given size (1, 2, 4, or 8 bytes). Naturally aligned accesses never
// cross a word boundary, which matches the paper's model where the byte
// offset into a forwarded word is preserved at the new location.
func checkAlign(a Addr, size uint) error {
	switch size {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("mem: bad access size %d", size)
	}
	if uint64(a)&uint64(size-1) != 0 {
		return ErrUnaligned
	}
	return nil
}

// ReadData reads size bytes (1, 2, 4, or 8) at a, zero-extended, with no
// forwarding interpretation. Returns ErrUnaligned for unnatural
// alignment.
func (m *Memory) ReadData(a Addr, size uint) (uint64, error) {
	if err := checkAlign(a, size); err != nil {
		return 0, err
	}
	return extract(m.ReadWord(WordAlign(a)), a, size), nil
}

// ReadUnforwarded is ReadData for a reference that needs no forwarding:
// when a is naturally aligned for size and the forwarding bit of its
// word is clear, it returns the value and true from one page lookup.
// Otherwise it reads nothing and returns false, and the caller resolves
// the reference the long way (whose errors it then reports).
func (m *Memory) ReadUnforwarded(a Addr, size uint) (uint64, bool) {
	if checkAlign(a, size) != nil {
		return 0, false
	}
	p := m.lookup(a)
	if p == nil {
		return 0, true
	}
	i := wordIndex(a)
	if p.fbit(i) {
		return 0, false
	}
	return extract(p.words[i], a, size), true
}

// WriteUnforwarded is WriteData for a reference that needs no
// forwarding: when a is naturally aligned for size and the forwarding
// bit of its word is clear, it writes the value from one page lookup and
// returns true. Otherwise it writes nothing and returns false.
func (m *Memory) WriteUnforwarded(a Addr, v uint64, size uint) bool {
	if checkAlign(a, size) != nil {
		return false
	}
	p := m.page(a)
	i := wordIndex(a)
	if p.fbit(i) {
		return false
	}
	p.words[i] = insert(p.words[i], a, v, size)
	return true
}

// extract returns the size bytes at a from its word w, zero-extended.
func extract(w uint64, a Addr, size uint) uint64 {
	if size == 8 {
		return w
	}
	shift := WordOffset(a) * 8
	mask := (uint64(1) << (size * 8)) - 1
	return (w >> shift) & mask
}

// insert returns w with the size bytes at a replaced by the low bytes
// of v.
func insert(w uint64, a Addr, v uint64, size uint) uint64 {
	if size == 8 {
		return v
	}
	shift := WordOffset(a) * 8
	mask := ((uint64(1) << (size * 8)) - 1) << shift
	return (w &^ mask) | ((v << shift) & mask)
}

// WriteData writes the low size bytes of v at a with no forwarding
// interpretation, leaving the rest of the word and the forwarding bit
// unchanged.
func (m *Memory) WriteData(a Addr, v uint64, size uint) error {
	if err := checkAlign(a, size); err != nil {
		return err
	}
	p := m.page(a)
	i := wordIndex(a)
	p.words[i] = insert(p.words[i], a, v, size)
	return nil
}

// Touched reports whether the page containing a has been materialized.
// Untouched pages read as zero with clear forwarding bits; a touched
// page is one some write has reached.
func (m *Memory) Touched(a Addr) bool { return m.lookup(a) != nil }

// TouchedPages returns the base addresses of all materialized pages in
// ascending order. Heap digests and whole-memory invariant sweeps use
// it to enumerate every word that can differ from the zero-fill state.
func (m *Memory) TouchedPages() []Addr {
	refs := m.sortedPages()
	out := make([]Addr, len(refs))
	for i, r := range refs {
		out[i] = r.pn << PageShift
	}
	return out
}

// EachFBit calls f with the address and raw value of every word whose
// forwarding bit is set, in ascending address order, looking each
// materialized page up once. Each group of eight bits is read before f
// sees its words, so f may clear the bit of the word it is given.
func (m *Memory) EachFBit(f func(a Addr, v uint64)) {
	for _, r := range m.sortedPages() {
		for i, b := range r.p.fbits {
			for ; b != 0; b &= b - 1 {
				w := i*8 + bits.TrailingZeros8(b)
				f(r.pn<<PageShift+Addr(w*WordSize), r.p.words[w])
			}
		}
	}
}

// pageRef is one materialized page and its page number.
type pageRef struct {
	pn Addr
	p  *page
}

// sortedPages lists m's pages by ascending page number.
func (m *Memory) sortedPages() []pageRef {
	refs := make([]pageRef, 0, m.pages.Len())
	m.pages.Each(func(pn uint64, p *page) { refs = append(refs, pageRef{Addr(pn), p}) })
	sort.Slice(refs, func(i, j int) bool { return refs[i].pn < refs[j].pn })
	return refs
}

// Zero clears exactly n bytes starting at a (word-aligned base),
// clearing the forwarding bit of every fully covered word — modelling
// OS initialization of fresh memory. If n is not a word multiple, the
// final partial word has only its low n%8 bytes cleared; the remaining
// bytes and that word's forwarding bit are preserved, since they belong
// to a neighbouring object that Zero has no licence to clobber.
func (m *Memory) Zero(a Addr, n uint64) {
	if a&WordMask != 0 {
		panic("mem: Zero requires word-aligned base")
	}
	full := n &^ uint64(WordMask)
	for off := uint64(0); off < full; off += WordSize {
		m.WriteWordFBit(a+Addr(off), 0, false)
	}
	if rem := n & WordMask; rem != 0 {
		wa := a + Addr(full)
		mask := (uint64(1) << (rem * 8)) - 1
		m.WriteWord(wa, m.ReadWord(wa)&^mask)
	}
}
