package addrtab

import "testing"

// FuzzTable runs byte programs of put, overwrite, delete, in-place
// update, filter, clear and get over a growing set of tables and checks
// every table after every step against a Go-map model: Len, Get of
// every model key, and an Each that visits every key exactly once with
// its value. While the set has room, the fork instruction adds a copy
// of a table's slots and model; once it is full, it clears the table.
//
// Each 3-byte instruction (op, x, y) acts on table x mod the set size.
// Keys are y shifted by x, or counted down from the largest legal key,
// so programs hit probe collisions, overwrites and both ends of the key
// range; on a small table, runs of colliding keys wrap around the slot
// array, so a delete's backward shift crosses the wrap, and puts after
// deletes regrow it. A program runs at most maxSteps instructions: the
// per-step check is linear in the tables' size, so longer programs
// would cost quadratic time without reaching table states shorter ones
// cannot.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 2, 1, 0, 1, 2, 0, 1, 4, 0, 0, 0, 1, 9, 3, 0, 2, 2, 1, 1})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 0, 6, 0, 0, 7, 0, 3, 0, 3, 4, 0, 0, 0, 9, 9})
	f.Add([]byte{0, 0x80, 0, 0, 0x80, 1, 0, 0x81, 7, 4, 0, 0, 2, 0x80, 0, 3, 1, 1, 2, 0x81, 7})
	fill := []byte{}
	for y := byte(1); y <= 24; y++ {
		fill = append(fill, 0, 0, y)
	}
	f.Add(append(fill, 3, 0, 0, 0, 0, 5, 3, 0, 1)) // every entry filtered out, then refill
	drain := append([]byte{}, fill...)
	for y := byte(1); y <= 24; y += 2 {
		drain = append(drain, 5, 0, y, 6, 0, y+1)
	}
	f.Add(append(drain, fill...)) // delete every other entry, update the rest, regrow
	f.Fuzz(func(t *testing.T, prog []byte) {
		type subject struct {
			tab   Table[uint64]
			model map[uint64]uint64
		}
		const maxSteps = 512
		if len(prog) > 3*maxSteps {
			prog = prog[:3*maxSteps]
		}
		size := 0
		if len(prog) > 0 {
			size = int(prog[0] % 64)
		}
		set := []*subject{{tab: New[uint64](size), model: map[uint64]uint64{}}}
		for pc := 0; pc+2 < len(prog); pc += 3 {
			op, x, y := prog[pc], prog[pc+1], prog[pc+2]
			s := set[int(x)%len(set)]
			key := uint64(y) << (x % 56)
			if x&0x80 != 0 {
				key = ^uint64(0) - 1 - uint64(y)
			}
			switch op % 7 {
			case 0, 1:
				v := uint64(pc)<<8 | uint64(y)
				s.tab.Put(key, v)
				s.model[key] = v
			case 2:
				got, ok := s.tab.Get(key)
				if want, wok := s.model[key]; ok != wok || got != want {
					t.Fatalf("pc %d: Get(%#x) = (%#x,%v), want (%#x,%v)", pc, key, got, ok, want, wok)
				}
			case 3:
				mod := uint64(y%5) + 2
				keep := func(k, v uint64) bool { return (k+v)%mod != 0 }
				s.tab.Filter(keep)
				for k, v := range s.model {
					if !keep(k, v) {
						delete(s.model, k)
					}
				}
			case 5:
				_, want := s.model[key]
				if got := s.tab.Delete(key); got != want {
					t.Fatalf("pc %d: Delete(%#x) = %v, want %v", pc, key, got, want)
				}
				delete(s.model, key)
			case 6:
				r := s.tab.Ref(key)
				if _, ok := s.model[key]; ok != (r != nil) {
					t.Fatalf("pc %d: Ref(%#x) = %p, model has it: %v", pc, key, r, ok)
				}
				if r != nil {
					*r += uint64(pc) << 32
					s.model[key] = *r
				}
			case 4:
				if len(set) == 4 {
					s.tab.Clear()
					clear(s.model)
					break
				}
				c := &subject{tab: s.tab, model: make(map[uint64]uint64, len(s.model))}
				c.tab.slots = append([]slot[uint64](nil), s.tab.slots...)
				c.tab.scratch = nil
				for k, v := range s.model {
					c.model[k] = v
				}
				set = append(set, c)
			}
			for i, s := range set {
				if s.tab.Len() != len(s.model) {
					t.Fatalf("pc %d table %d: Len %d, model %d", pc, i, s.tab.Len(), len(s.model))
				}
				seen := make(map[uint64]bool, len(s.model))
				s.tab.Each(func(k, v uint64) {
					if seen[k] {
						t.Fatalf("pc %d table %d: Each visited %#x twice", pc, i, k)
					}
					seen[k] = true
					if want, ok := s.model[k]; !ok || v != want {
						t.Fatalf("pc %d table %d: Each(%#x) = %#x, model (%#x,%v)", pc, i, k, v, want, ok)
					}
				})
				for k, want := range s.model {
					if got, ok := s.tab.Get(k); !ok || got != want {
						t.Fatalf("pc %d table %d: Get(%#x) = (%#x,%v), want %#x", pc, i, k, got, ok, want)
					}
				}
			}
		}
	})
}
