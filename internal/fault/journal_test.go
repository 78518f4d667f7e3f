package fault

import (
	"math/rand"
	"testing"

	"memfwd/internal/mem"
)

// TestScavengeSweepMatchesPerWord holds Scavenge's orphan sweep, which
// visits only the set forwarding bits of each page, to the per-word
// sweep it replaced: over random touched pages and random forwarding
// words — targets that are nil, in touched pages or in untouched ones —
// both clear the same bits with the same writes in the same order and
// count the same ClearedFBits.
func TestScavengeSweepMatchesPerWord(t *testing.T) {
	type write struct {
		a    mem.Addr
		v    uint64
		fbit bool
	}
	build := func(seed int64) (*mem.Memory, *[]write) {
		rng := rand.New(rand.NewSource(seed))
		mm := mem.New()
		pages := make([]mem.Addr, 1+rng.Intn(24))
		for i := range pages {
			pages[i] = mem.Addr(rng.Intn(64)) << mem.PageShift
			mm.WriteWord(pages[i]+mem.Addr(rng.Intn(mem.PageWords))*mem.WordSize, rng.Uint64())
		}
		for n := rng.Intn(400); n > 0; n-- {
			wa := pages[rng.Intn(len(pages))] + mem.Addr(rng.Intn(mem.PageWords))*mem.WordSize
			var v uint64
			switch rng.Intn(3) {
			case 1:
				v = uint64(pages[rng.Intn(len(pages))]) + uint64(rng.Intn(mem.PageBytes))
			case 2:
				v = uint64(64+rng.Intn(64))<<mem.PageShift + uint64(rng.Intn(mem.PageBytes))
			}
			mm.WriteWordFBit(wa, v, true)
		}
		var log []write
		mm.SetWriteFault(func(a mem.Addr, v uint64, fbit bool) (uint64, bool) {
			log = append(log, write{a, v, fbit})
			return v, fbit
		})
		return mm, &log
	}
	for seed := int64(0); seed < 200; seed++ {
		got, gotLog := build(seed)
		rep, err := Scavenge(got, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, wantLog := build(seed)
		cleared := 0
		for _, pb := range want.TouchedPages() {
			for w := 0; w < mem.PageWords; w++ {
				wa := pb + mem.Addr(w*mem.WordSize)
				if !want.FBit(wa) {
					continue
				}
				tgt := mem.Addr(want.ReadWord(wa))
				if tgt == 0 || !want.Touched(mem.WordAlign(tgt)) {
					want.WriteWordFBit(wa, uint64(tgt), false)
					cleared++
				}
			}
		}
		if rep.ClearedFBits != cleared {
			t.Fatalf("seed %d: cleared %d, per-word sweep %d", seed, rep.ClearedFBits, cleared)
		}
		if len(*gotLog) != len(*wantLog) {
			t.Fatalf("seed %d: %d writes, per-word sweep %d", seed, len(*gotLog), len(*wantLog))
		}
		for i, w := range *wantLog {
			if (*gotLog)[i] != w {
				t.Fatalf("seed %d: write %d = %+v, per-word sweep %+v", seed, i, (*gotLog)[i], w)
			}
		}
		for _, pb := range want.TouchedPages() {
			for w := 0; w < mem.PageWords; w++ {
				wa := pb + mem.Addr(w*mem.WordSize)
				gv, gb := got.ReadWordFBit(wa)
				wv, wb := want.ReadWordFBit(wa)
				if gv != wv || gb != wb {
					t.Fatalf("seed %d: word %#x = (%#x,%v), per-word sweep (%#x,%v)", seed, wa, gv, gb, wv, wb)
				}
			}
		}
	}
}
