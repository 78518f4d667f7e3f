package obs

import (
	"fmt"
	"sort"

	"memfwd/internal/addrtab"
	"memfwd/internal/report"
)

// HeatObject is the accumulated access profile of one allocation block.
// Counters decay by halving every epoch so the map tracks current heat,
// not lifetime totals; Loads/Stores therefore approximate a
// recency-weighted access rate rather than an exact count.
type HeatObject struct {
	Base  uint64 `json:"base"`  // allocation base address
	Bytes uint64 `json:"bytes"` // allocation size
	Live  bool   `json:"live"`  // false once freed

	Loads     uint64 `json:"loads"`
	Stores    uint64 `json:"stores"`
	Forwarded uint64 `json:"forwarded"` // accesses that took >= 1 hop
	Hops      uint64 `json:"hops"`      // total hops across accesses
	MaxHops   int    `json:"maxHops"`   // longest chain ever walked here
	Traps     uint64 `json:"traps"`
	TrapCyc   uint64 `json:"trapCycles"` // cycles spent in trap handling
}

// heat returns the eviction/ranking temperature of an object.
func (o *HeatObject) heat() uint64 { return o.Loads + o.Stores }

// HeatSnapshot is an immutable reading of a HeatMap, safe to hand to
// another goroutine (the HTTP telemetry plane publishes these).
type HeatSnapshot struct {
	Objects   int          `json:"objects"`
	Live      int          `json:"live"`
	Evicted   uint64       `json:"evicted"`
	Untracked uint64       `json:"untracked"`
	Epochs    uint64       `json:"epochs"`
	Hottest   []HeatObject `json:"hottest"`
	Chains    []HeatObject `json:"chains"`
}

// Heat map defaults.
const (
	// DefaultHeatObjects bounds the table; at capacity the coldest
	// (preferring already-freed) entry is evicted.
	DefaultHeatObjects = 4096
	// DefaultHeatEpoch is how many recorded accesses pass between decay
	// epochs (each epoch halves every counter).
	DefaultHeatEpoch = 1 << 20
)

// HeatMap is a bounded, epoch-decayed per-object access profile keyed
// by allocation block identity — the promote/demote input an online
// tiering optimizer needs. It is fed from the machine's existing hook
// points (Malloc/Free/Load/Store/trap) behind nil checks, so a machine
// without one attached pays a single predictable branch and zero
// allocations per access.
//
// Word-to-object resolution uses an exact per-word index (objects are
// word-aligned, so every word belongs to at most one block); accesses
// to words outside any tracked block (stack, globals, evicted blocks)
// count in Untracked. The index is an addrtab.Pages table, as
// mem.Memory is: one slot per word holding the covering live block's
// profile id, pages materialized on first use and never released, and
// the page table's MRU page and victim file resolving runs of accesses
// among three recent pages without a probe. Profiles live in a slab
// addressed by those ids, so neither the index nor the slab holds a
// pointer for the collector to scan.
//
// Like the Machine it instruments, a HeatMap is not safe for concurrent
// use; concurrent readers get Snapshot copies.
type HeatMap struct {
	objs map[uint64]uint32 // base -> slab id, live and dead profiles
	slab []HeatObject      // id -> profile; id 0 means "no block"
	free []uint32          // ids released by eviction and decay

	pages addrtab.Pages[heatPage] // page number -> word slots

	maxObjects int
	epochEvery uint64
	sinceEpoch uint64

	epochs    uint64
	evicted   uint64
	untracked uint64
}

// Index pages cover one 4 KB page of address space each.
const (
	heatPageShift = 12
	heatPageWords = 1 << (heatPageShift - 3)
)

// heatPage holds a slot per word: the slab id of the live tracked block
// covering it, or 0. A page costs 2 KB per 4 KB of tracked address space.
type heatPage [heatPageWords]uint32

// NewHeatMap builds a heat map bounded to maxObjects entries with a
// decay epoch every epochEvery accesses (<= 0 takes the defaults).
func NewHeatMap(maxObjects int, epochEvery uint64) *HeatMap {
	if maxObjects <= 0 {
		maxObjects = DefaultHeatObjects
	}
	if epochEvery == 0 {
		epochEvery = DefaultHeatEpoch
	}
	return &HeatMap{
		objs:       make(map[uint64]uint32),
		slab:       make([]HeatObject, 1),
		pages:      addrtab.NewPages[heatPage](0),
		maxObjects: maxObjects,
		epochEvery: epochEvery,
	}
}

// OnAlloc registers a new allocation block (nil-safe). Reusing a base
// address replaces the previous entry in the same slab slot.
func (h *HeatMap) OnAlloc(base, bytes uint64) {
	if h == nil {
		return
	}
	id, ok := h.objs[base]
	if ok {
		// The allocator reused an address; the old block is gone.
		if h.slab[id].Live {
			h.index(id, false)
		}
	} else {
		if len(h.objs) >= h.maxObjects {
			h.evictColdest()
		}
		id = h.newID()
		h.objs[base] = id
	}
	h.slab[id] = HeatObject{Base: base, Bytes: bytes, Live: true}
	h.index(id, true)
}

// OnFree marks a block dead (nil-safe). The profile is retained — a
// dead-but-hot object is still interesting to Top queries — but its
// words no longer resolve and it is first in line for eviction.
func (h *HeatMap) OnFree(base uint64) {
	if h == nil {
		return
	}
	id, ok := h.objs[base]
	if !ok || !h.slab[id].Live {
		return
	}
	h.slab[id].Live = false
	h.index(id, false)
}

// newID takes a slab slot for a new profile, recycling released ones.
func (h *HeatMap) newID() uint32 {
	if n := len(h.free); n > 0 {
		id := h.free[n-1]
		h.free = h.free[:n-1]
		return id
	}
	h.slab = append(h.slab, HeatObject{})
	return uint32(len(h.slab) - 1)
}

// release forgets the profile at base entirely.
func (h *HeatMap) release(base uint64, id uint32) {
	delete(h.objs, base)
	h.free = append(h.free, id)
}

// index points every word of block id at it (set) or clears the words
// that still point at it (!set). Only live blocks hold index slots, so
// a slot always names a live profile whose base maps back to it.
func (h *HeatMap) index(id uint32, set bool) {
	o := &h.slab[id]
	end := (o.Base + o.Bytes + 7) >> 3
	for w := o.Base >> 3; w < end; {
		off := w & (heatPageWords - 1)
		n := min(heatPageWords-off, end-w)
		// A live block's pages were materialized when it was indexed,
		// so clearing it materializes nothing.
		slots := h.pages.Ensure(w >> (heatPageShift - 3))[off : off+n]
		for i := range slots {
			if set {
				slots[i] = id
			} else if slots[i] == id {
				slots[i] = 0
			}
		}
		w += n
	}
}

// evictColdest removes the lowest-heat entry, preferring dead blocks:
// a freed object is evicted before any live one regardless of heat.
func (h *HeatMap) evictColdest() {
	var victim *HeatObject
	var vid uint32
	for _, id := range h.objs {
		o := &h.slab[id]
		if victim == nil {
			victim, vid = o, id
			continue
		}
		switch {
		case victim.Live && !o.Live:
			victim, vid = o, id
		case victim.Live == o.Live &&
			(o.heat() < victim.heat() ||
				(o.heat() == victim.heat() && o.Base < victim.Base)):
			victim, vid = o, id
		}
	}
	if victim == nil {
		return
	}
	if victim.Live {
		h.index(vid, false)
	}
	h.release(victim.Base, vid)
	h.evicted++
}

// lookup resolves a word address to its tracked live object, if any.
func (h *HeatMap) lookup(addr uint64) *HeatObject {
	p := h.pages.Get(addr >> heatPageShift)
	if p == nil {
		return nil
	}
	id := p[(addr>>3)&(heatPageWords-1)]
	if id == 0 {
		return nil
	}
	return &h.slab[id]
}

// Resolve maps an address to the base of the tracked allocation block
// containing it (nil-safe). The attribution profiler uses this to key
// trap profiles by object identity rather than raw address.
func (h *HeatMap) Resolve(addr uint64) (base uint64, ok bool) {
	if h == nil {
		return 0, false
	}
	o := h.lookup(addr)
	if o == nil {
		return 0, false
	}
	return o.Base, true
}

// Get returns a copy of the tracked profile for the block at base
// (nil-safe). The tiering daemon uses it to read the current decayed
// heat of a specific resident object when ranking demotion victims.
func (h *HeatMap) Get(base uint64) (HeatObject, bool) {
	if h == nil {
		return HeatObject{}, false
	}
	id, ok := h.objs[base]
	if !ok {
		return HeatObject{}, false
	}
	return h.slab[id], true
}

// RecordAccess attributes one load or store (nil-safe). initial is the
// address the program issued (object identity follows the original
// location so heat survives relocation until the chain is collapsed);
// hops is the forwarding chain length walked (0 = direct).
func (h *HeatMap) RecordAccess(initial, final uint64, store bool, hops int) {
	if h == nil {
		return
	}
	o := h.lookup(initial)
	if o == nil && final != initial {
		// Relocated object whose source block was never tracked (or
		// evicted): fall back to the data's current home.
		o = h.lookup(final)
	}
	if o == nil {
		h.untracked++
		return
	}
	if store {
		o.Stores++
	} else {
		o.Loads++
	}
	if hops > 0 {
		o.Forwarded++
		o.Hops += uint64(hops)
		if hops > o.MaxHops {
			o.MaxHops = hops
		}
	}
	h.tick()
}

// RecordTrap attributes one forwarding trap and its handling cost. The
// trapped access itself is counted by its RecordAccess, tracked or not,
// so an untracked trap adds nothing here.
func (h *HeatMap) RecordTrap(initial uint64, cycles int64) {
	if h == nil {
		return
	}
	o := h.lookup(initial)
	if o == nil {
		return
	}
	o.Traps++
	if cycles > 0 {
		o.TrapCyc += uint64(cycles)
	}
}

// tick advances the epoch clock; every epochEvery recorded accesses the
// counters halve, and dead entries that decay to zero heat are dropped.
func (h *HeatMap) tick() {
	h.sinceEpoch++
	if h.sinceEpoch < h.epochEvery {
		return
	}
	h.sinceEpoch = 0
	h.epochs++
	for base, id := range h.objs {
		o := &h.slab[id]
		o.Loads >>= 1
		o.Stores >>= 1
		o.Forwarded >>= 1
		o.Hops >>= 1
		o.Traps >>= 1
		o.TrapCyc >>= 1
		if !o.Live && o.heat() == 0 {
			h.release(base, id)
		}
	}
}

// Len returns the number of tracked objects.
func (h *HeatMap) Len() int {
	if h == nil {
		return 0
	}
	return len(h.objs)
}

// Untracked returns the count of accesses that resolved to no tracked
// object.
func (h *HeatMap) Untracked() uint64 {
	if h == nil {
		return 0
	}
	return h.untracked
}

// top returns up to k object copies sorted by less (ties broken by
// ascending base for determinism), skipping entries where skip is true.
func (h *HeatMap) top(k int, skip func(*HeatObject) bool, less func(a, b *HeatObject) bool) []HeatObject {
	if h == nil || k <= 0 {
		return nil
	}
	objs := make([]*HeatObject, 0, len(h.objs))
	for _, id := range h.objs {
		o := &h.slab[id]
		if skip != nil && skip(o) {
			continue
		}
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool {
		if less(objs[i], objs[j]) {
			return true
		}
		if less(objs[j], objs[i]) {
			return false
		}
		return objs[i].Base < objs[j].Base
	})
	if len(objs) > k {
		objs = objs[:k]
	}
	out := make([]HeatObject, len(objs))
	for i, o := range objs {
		out[i] = *o
	}
	return out
}

// Top returns the k hottest objects (loads+stores, decayed) hottest
// first.
func (h *HeatMap) Top(k int) []HeatObject {
	return h.top(k, nil, func(a, b *HeatObject) bool { return a.heat() > b.heat() })
}

// LongestChains returns the k live objects with the longest observed
// forwarding chains, longest first — the demotion/collapse candidates.
func (h *HeatMap) LongestChains(k int) []HeatObject {
	return h.top(k,
		func(o *HeatObject) bool { return !o.Live || o.MaxHops == 0 },
		func(a, b *HeatObject) bool { return a.MaxHops > b.MaxHops })
}

// Snapshot returns an immutable digest with the top-k rankings.
func (h *HeatMap) Snapshot(k int) HeatSnapshot {
	if h == nil {
		return HeatSnapshot{}
	}
	live := 0
	for _, id := range h.objs {
		if h.slab[id].Live {
			live++
		}
	}
	return HeatSnapshot{
		Objects:   len(h.objs),
		Live:      live,
		Evicted:   h.evicted,
		Untracked: h.untracked,
		Epochs:    h.epochs,
		Hottest:   h.Top(k),
		Chains:    h.LongestChains(k),
	}
}

// RegisterMetrics attaches the heat map's own accounting to a registry.
func (h *HeatMap) RegisterMetrics(r *Registry) {
	r.GaugeFunc("heat.objects", func() float64 { return float64(len(h.objs)) })
	r.GaugeFunc("heat.evicted", func() float64 { return float64(h.evicted) })
	r.GaugeFunc("heat.untracked", func() float64 { return float64(h.untracked) })
	r.GaugeFunc("heat.epochs", func() float64 { return float64(h.epochs) })
}

// Report renders the top-k hottest objects as a table.
func (h *HeatMap) Report(k int) *report.Table {
	t := report.New(fmt.Sprintf("Heat map (top %d objects by decayed loads+stores)", k),
		"base", "bytes", "live", "loads", "stores", "fwd", "hops(max)", "traps", "trapCyc")
	for _, o := range h.Top(k) {
		live := "yes"
		if !o.Live {
			live = "no"
		}
		t.Add(fmt.Sprintf("0x%x", o.Base), fmt.Sprint(o.Bytes), live,
			fmt.Sprint(o.Loads), fmt.Sprint(o.Stores), fmt.Sprint(o.Forwarded),
			fmt.Sprintf("%d(%d)", o.Hops, o.MaxHops),
			fmt.Sprint(o.Traps), fmt.Sprint(o.TrapCyc))
	}
	return t
}
