package tier

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"memfwd/internal/core"
	"memfwd/internal/mem"
	"memfwd/internal/obs"
	"memfwd/internal/sim"
)

// twin is one side of FuzzDaemonWake: a machine, the daemon wrapping
// it, and the relocations its tracer has seen.
type twin struct {
	m     *sim.Machine
	d     interface{ Stats() Stats }
	guest interface {
		Malloc(uint64) mem.Addr
		Free(mem.Addr)
		LoadWord(mem.Addr) uint64
		StoreWord(mem.Addr, uint64)
		SetTrap(core.TrapHandler)
	}
	moves *obs.MemorySink
}

// FuzzDaemonWake holds the event-driven wake to refDaemon, which
// re-scores every live block at every wake. A byte program runs on two
// identical machines, one wrapped in each daemon: timed and untimed
// mallocs and frees (a freed heap base is reused by the next malloc of
// its size), skewed loads and stores, bursts that make a block hot, and
// explicit wakes. A guest trap handler is installed, so accesses to
// demoted blocks trap, and the near budget is small, so allocations
// spill. The header bytes pick the configuration: a shared heat map
// (small, so it evicts, with a short decay epoch) or the daemon's
// private one, the adaptive or OneShot policy, and how many blocks the
// machine holds before the daemon wraps it. After every
// operation the two Stats and the relocations (base and target, in
// order) must agree; after every wake, so must every live block's
// score, idle count, last heat, residency and move count, the daemon's
// read in closed form.
func FuzzDaemonWake(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, hdr := range [][]byte{{1, 7, 9, 0x23}, {0, 3, 200, 0x15}, {3, 12, 4, 0x41}, {1, 0, 2, 0x08}, {5, 20, 0xc3, 0x30}, {4, 9, 0, 0x7f}, {0x39, 1, 0x45, 0}, {0xf8, 30, 0, 0x91}} {
		f.Add(hdr, wakeProgram(rng, 160))
	}
	f.Fuzz(func(t *testing.T, hdr, prog []byte) { runProg(t, hdr, prog) })
}

func runProg(t *testing.T, hdr, prog []byte) {
	{
		if len(hdr) < 4 {
			return
		}
		const maxOps = 256
		shared, oneShot := hdr[0]&1 != 0, hdr[0]&2 != 0
		tc := mem.DefaultTierConfig(2, 70)
		cfg := Config{
			Tiers:          tc,
			Seed:           int64(hdr[1]),
			Every:          8 + int(hdr[1]%56),
			FastFrac:       0.25,
			MinBudget:      256 << (hdr[0] >> 2 & 3),
			MaxMoves:       1 + int(hdr[3]%8),
			MaxObjectBytes: 1024,
			PromoteMin:     4 + uint64(hdr[3]>>3),
			OneShot:        oneShot,
		}
		size := func(v int) uint64 {
			if v&0x80 != 0 {
				return cfg.MaxObjectBytes + 64 // never moved or spilled
			}
			return 8 + 8*uint64(v%48)
		}
		// Blocks the machine held before its daemon came.
		var pre [16]mem.Addr
		build := func(ref bool) *twin {
			tw := &twin{m: sim.New(sim.Config{Tiers: tc}), moves: &obs.MemorySink{}}
			tr := obs.NewTracer(tw.moves, 1)
			tr.EnableOnly(obs.KRelocate)
			tw.m.SetTracer(tr)
			c := cfg
			if shared {
				c.Heat = obs.NewHeatMap(4+int(hdr[2]%60), 16<<(hdr[2]>>6))
				tw.m.SetHeatMap(c.Heat)
			}
			for i := 0; i < int(hdr[0]>>4); i++ {
				pre[i] = tw.m.Alloc.Alloc(size(int(hdr[1]) + i))
			}
			if ref {
				d := newRefDaemon(tw.m, c)
				tw.d, tw.guest = d, d
			} else {
				d := New(tw.m, c)
				tw.d, tw.guest = d, d
			}
			tw.guest.SetTrap(func(core.Event) {})
			return tw
		}
		a, b := build(false), build(true)
		nd, rd := a.d.(*Daemon), b.d.(*refDaemon)

		live := append([]mem.Addr(nil), pre[:hdr[0]>>4]...)
		arg := func() int {
			if len(prog) == 0 {
				return 0
			}
			v := prog[0]
			prog = prog[1:]
			return int(v)
		}
		pick := func() (mem.Addr, bool) {
			if len(live) == 0 {
				return 0, false
			}
			i, j := arg()%len(live), arg()%len(live)
			return live[min(i, j)], true // skewed toward the oldest blocks
		}
		// reap drops the blocks a free released, the chain blocks the
		// machine's Free follows included.
		reap := func() {
			kept := live[:0]
			for _, p := range live {
				if a.m.Alloc.Live(p) {
					kept = append(kept, p)
				}
			}
			live = kept
		}
		both := func(f func(tw *twin) mem.Addr) {
			pa, pb := f(a), f(b)
			if pa != pb {
				t.Fatalf("twins diverged: %#x vs %#x", pa, pb)
			}
			if pa != 0 {
				live = append(live, pa)
			}
		}

		wakes := uint64(0)
		for op := 0; len(prog) > 0 && op < maxOps; op++ {
			switch code := arg() % 8; code {
			case 0: // timed malloc
				n := size(arg())
				both(func(tw *twin) mem.Addr { return tw.guest.Malloc(n) })
			case 1: // untimed malloc
				n := size(arg())
				both(func(tw *twin) mem.Addr { return tw.m.Alloc.Alloc(n) })
			case 2, 3: // timed or untimed free, one time in four
				gate := arg()
				p, ok := pick()
				if !ok || gate&3 != 0 || !a.m.Alloc.Freeable(p) {
					break
				}
				for _, tw := range []*twin{a, b} {
					if code == 2 {
						tw.guest.Free(p)
					} else {
						tw.m.Alloc.Free(p)
					}
				}
				reap()
			case 4, 5: // skewed loads or stores
				for n := arg() % 32; n > 0; n-- {
					p, ok := pick()
					if !ok {
						break
					}
					sz, _ := a.m.Alloc.SizeOf(p)
					w := p + mem.Addr(uint64(arg())%(sz/8)*8)
					for _, tw := range []*twin{a, b} {
						if code == 4 {
							tw.guest.LoadWord(w)
						} else {
							tw.guest.StoreWord(w, uint64(n))
						}
					}
				}
			case 6: // a burst on one block
				p, ok := pick()
				if !ok {
					break
				}
				for n := 64 + 4*arg(); n > 0; n-- {
					a.guest.LoadWord(p)
					b.guest.LoadWord(p)
				}
			case 7:
				nd.wake()
				rd.wake()
			}
			if sa, sb := a.d.Stats(), b.d.Stats(); !reflect.DeepEqual(sa, sb) {
				t.Fatalf("op %d: stats\n%+v\nwant\n%+v", op, sa, sb)
			}
			if !reflect.DeepEqual(a.moves.Events, b.moves.Events) {
				t.Fatalf("op %d: relocations\n%v\nwant\n%v", op, a.moves.Events, b.moves.Events)
			}
			if w := nd.stats.Wakes; w != wakes {
				wakes = w
				checkRecords(t, op, nd, rd)
			}
		}
	}
}

// wakeProgram returns a seed program for FuzzDaemonWake of the given
// number of operations: allocations that spill, a few hot blocks, bursts
// that can earn a promotion, frees, and runs of explicit wakes long
// enough for untouched blocks to go cold and be demoted.
func wakeProgram(rng *rand.Rand, ops int) []byte {
	var p []byte
	live := 0
	for i := 0; i < ops; i++ {
		switch x := rng.Intn(10); {
		case x < 3:
			p = append(p, 0, byte(rng.Intn(48)))
			live++
		case x < 4:
			p = append(p, 1, byte(rng.Intn(48)))
			live++
		case x < 5 && live > 2:
			k := byte(rng.Intn(live))
			p = append(p, byte(2+rng.Intn(2)), 0, k, k)
			live--
		case x < 7 && live > 0:
			p = append(p, byte(4+rng.Intn(2)), 4)
			for j := 0; j < 4; j++ {
				k := byte(rng.Intn(min(live, 3)))
				p = append(p, k, k, byte(rng.Intn(8)))
			}
		case x < 8 && live > 0:
			k := byte(rng.Intn(live))
			p = append(p, 6, k, k, byte(rng.Intn(16)))
		default:
			p = append(p, 7, 7, 7, 7, 7, 7)
		}
	}
	return p
}

// checkRecords compares every live block's record in the two daemons,
// the event-driven one's read in closed form at its current wake. A
// block born since that wake (or after a OneShot pass) has no record in
// either, or the unranked one a spill placement made.
func checkRecords(t *testing.T, op int, nd *Daemon, rd *refDaemon) {
	t.Helper()
	n := 0
	nd.al.EachLive(func(base mem.Addr, _ uint64) {
		var got refBlock
		if b := nd.blocks.Ref(uint64(base)); b != nil {
			n++
			score, idle := b.ranked(nd.stats.Wakes)
			got = refBlock{last: b.last, score: score, idle: idle, bytes: b.bytes, tier: int(b.tier), moved: int(b.moved)}
		} else if !slices.Contains(nd.born, base) && !nd.cfg.OneShot {
			t.Fatalf("op %d: live block %#x has no record", op, base)
		}
		if want := rd.blocks[base]; got != want {
			t.Fatalf("op %d wake %d: block %#x = %+v, want %+v", op, nd.stats.Wakes, base, got, want)
		}
	})
	if nd.blocks.Len() != n {
		t.Fatalf("op %d: %d records, %d of them for live blocks", op, nd.blocks.Len(), n)
	}
}
