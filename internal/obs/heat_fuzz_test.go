package obs

import (
	"bytes"
	"sort"
	"testing"
)

// heatModel is the reference the paged index is checked against: a
// per-word map index and a base-keyed map of profiles, with the same
// eviction, decay and ranking rules, where only RecordAccess counts an
// untracked access.
type heatModel struct {
	objs  map[uint64]*HeatObject
	index map[uint64]uint64 // word addr >> 3 -> base

	max, every, since  uint64
	evicted, untracked uint64
}

func newHeatModel(maxObjects int, every uint64) *heatModel {
	return &heatModel{
		objs:  map[uint64]*HeatObject{},
		index: map[uint64]uint64{},
		max:   uint64(maxObjects),
		every: every,
	}
}

func (m *heatModel) dropIndex(o *HeatObject) {
	for w := o.Base >> 3; w < (o.Base+o.Bytes+7)>>3; w++ {
		if b, ok := m.index[w]; ok && b == o.Base {
			delete(m.index, w)
		}
	}
}

func (m *heatModel) onAlloc(base, bytes uint64) {
	if old, ok := m.objs[base]; ok {
		m.dropIndex(old)
	} else if uint64(len(m.objs)) >= m.max {
		var victim *HeatObject
		for _, o := range m.objs {
			switch {
			case victim == nil,
				victim.Live && !o.Live,
				victim.Live == o.Live && (o.heat() < victim.heat() ||
					o.heat() == victim.heat() && o.Base < victim.Base):
				victim = o
			}
		}
		m.dropIndex(victim)
		delete(m.objs, victim.Base)
		m.evicted++
	}
	m.objs[base] = &HeatObject{Base: base, Bytes: bytes, Live: true}
	for w := base >> 3; w < (base+bytes+7)>>3; w++ {
		m.index[w] = base
	}
}

func (m *heatModel) onFree(base uint64) {
	if o, ok := m.objs[base]; ok {
		o.Live = false
		m.dropIndex(o)
	}
}

func (m *heatModel) lookup(addr uint64) *HeatObject {
	if base, ok := m.index[addr>>3]; ok {
		return m.objs[base]
	}
	return nil
}

func (m *heatModel) recordAccess(initial, final uint64, store bool, hops int) {
	o := m.lookup(initial)
	if o == nil && final != initial {
		o = m.lookup(final)
	}
	if o == nil {
		m.untracked++
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
		o.MaxHops = max(o.MaxHops, hops)
	}
	if m.since++; m.since < m.every {
		return
	}
	m.since = 0
	for base, o := range m.objs {
		o.Loads >>= 1
		o.Stores >>= 1
		o.Forwarded >>= 1
		o.Hops >>= 1
		o.Traps >>= 1
		o.TrapCyc >>= 1
		if !o.Live && o.heat() == 0 {
			delete(m.objs, base)
		}
	}
}

func (m *heatModel) recordTrap(initial uint64, cycles int64) {
	if o := m.lookup(initial); o != nil {
		o.Traps++
		if cycles > 0 {
			o.TrapCyc += uint64(cycles)
		}
	}
}

func (m *heatModel) top() []HeatObject {
	out := make([]HeatObject, 0, len(m.objs))
	for _, o := range m.objs {
		out = append(out, *o)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].heat() != out[j].heat() {
			return out[i].heat() > out[j].heat()
		}
		return out[i].Base < out[j].Base
	})
	return out
}

// The fuzzed blocks live in a window that straddles an index page
// boundary, so blocks span two index pages and accesses alternate
// between them.
const (
	fuzzLo     = 1<<16 - 0x200
	fuzzBases  = 96 // bases fuzzLo, fuzzLo+8, ...
	fuzzWindow = 0x800
)

// FuzzHeatMap model-checks the paged word index: a byte program of
// allocations (reused bases, sizes that are not whole words), frees,
// forwarded accesses, traps and access bursts runs on a small HeatMap,
// so eviction and decay both fire, and on heatModel. After every step
// Resolve on the words it touched, Get on the bases it touched, Len,
// Untracked and the full Top ranking must agree; after the last step,
// Resolve on every word of the window and Get on every base.
func FuzzHeatMap(f *testing.F) {
	f.Add([]byte{2, 3, 0, 1, 20, 0, 2, 30, 2, 1, 2, 3, 1, 1, 0, 1, 9, 4, 2, 5})
	f.Add([]byte{0, 15, 0, 0, 200, 0, 60, 255, 2, 0, 61, 1, 3, 0, 2, 5, 1, 0})
	f.Add(bytes.Repeat([]byte{0, 7, 13, 2, 7, 90, 4, 40, 1, 7, 3, 90}, 6))
	f.Add(append([]byte{5, 1}, bytes.Repeat([]byte{0, 3, 9, 4, 3, 0, 0, 4, 2, 4, 20, 1, 4}, 8)...))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 {
			return
		}
		maxObjects, every := 1+int(prog[0]%8), 1+uint64(prog[1]%16)
		prog = prog[2:]
		if len(prog) > 256 {
			prog = prog[:256]
		}
		h := NewHeatMap(maxObjects, every)
		m := newHeatModel(maxObjects, every)
		arg := func() uint64 {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return uint64(b)
		}
		base := func(b uint64) uint64 { return fuzzLo + 8*(b%fuzzBases) }
		addr := func(b uint64) uint64 { return fuzzLo + b*fuzzWindow/256 }

		var words, bases []uint64 // touched by the current step
		touch := func(lo, hi uint64) {
			for a := lo &^ 7; a < hi; a += 8 {
				words = append(words, a)
				if o := m.lookup(a); o != nil {
					bases = append(bases, o.Base)
				}
			}
		}
		check := func(step int) {
			for _, a := range words {
				got, gok := h.Resolve(a)
				var want uint64
				o := m.lookup(a)
				if o != nil {
					want = o.Base
				}
				if gok != (o != nil) || got != want {
					t.Fatalf("step %d: Resolve(%#x) = %#x,%v, want %#x,%v", step, a, got, gok, want, o != nil)
				}
			}
			for _, b := range bases {
				got, gok := h.Get(b)
				want, wok := m.objs[b]
				if gok != wok || (wok && got != *want) {
					t.Fatalf("step %d: Get(%#x) = %+v,%v, want %+v,%v", step, b, got, gok, want, wok)
				}
			}
			if h.Len() != len(m.objs) || h.Untracked() != m.untracked || h.evicted != m.evicted {
				t.Fatalf("step %d: Len %d Untracked %d Evicted %d, want %d %d %d", step,
					h.Len(), h.Untracked(), h.evicted, len(m.objs), m.untracked, m.evicted)
			}
			got, want := h.Top(maxObjects+1), m.top()
			if len(got) != len(want) {
				t.Fatalf("step %d: Top has %d objects, want %d", step, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: Top[%d] = %+v, want %+v", step, i, got[i], want[i])
				}
			}
			words, bases = words[:0], bases[:0]
		}

		step := 0
		for ; len(prog) > 0; step++ {
			switch op := arg() % 5; op {
			case 0:
				b, n := base(arg()), 3*arg()
				touch(b-8, b) // the word before, and whatever block held b
				h.OnAlloc(b, n)
				m.onAlloc(b, n)
				touch(b, b+n+8)
			case 1:
				b := base(arg())
				if o, ok := m.objs[b]; ok {
					touch(b, b+o.Bytes)
				}
				bases = append(bases, b)
				h.OnFree(b)
				m.onFree(b)
			case 2:
				sel := arg()
				initial, final := addr(arg()), addr(arg())+0x40
				store, hops := sel&1 != 0, int(sel>>1)%4
				h.RecordAccess(initial, final, store, hops)
				m.recordAccess(initial, final, store, hops)
				touch(initial, initial+1)
				touch(final, final+1)
			case 3:
				a, cyc := addr(arg()), int64(arg())-8
				h.RecordTrap(a, cyc)
				m.recordTrap(a, cyc)
				touch(a, a+1)
			case 4:
				a, k := addr(arg()), arg()%32
				for i := uint64(0); i < k; i++ {
					h.RecordAccess(a+8*(i%4), a, i%3 == 0, 0)
					m.recordAccess(a+8*(i%4), a, i%3 == 0, 0)
				}
				touch(a, a+32)
			}
			check(step)
		}
		touch(fuzzLo, fuzzLo+fuzzWindow+0x400)
		for i := uint64(0); i < fuzzBases; i++ {
			bases = append(bases, base(i))
		}
		check(step)
	})
}
