package tier

import (
	"cmp"
	"math/rand"
	"slices"

	"memfwd/internal/agent"
	"memfwd/internal/apps/app"
	"memfwd/internal/core"
	"memfwd/internal/mem"
	"memfwd/internal/obs"
	"memfwd/internal/opt"
)

// refDaemon is the reference the event-driven wake is held to: the
// daemon that re-scores every live block at every wake, through Go
// maps, in the allocator's map order, and forgets a block's record at
// every free (the allocator's Track hook), as the daemon does. Its
// policy — placement, ranking, victim and promotion choice, migration —
// is the daemon's, so the two must make the same decisions on the same
// operations.
type refDaemon struct {
	app.Interceptor
	al    *mem.Allocator
	tiers *mem.Tiers
	cfg   Config
	rng   *rand.Rand
	clock agent.Clock

	inWake, inMalloc, fired bool

	heat    *obs.HeatMap
	ownHeat bool

	guestTrap, tap core.TrapHandler

	blocks     map[mem.Addr]refBlock
	farBytes   uint64
	patience   int
	lastSpills uint64
	stats      Stats
}

// refBlock is refDaemon's record of one live block.
type refBlock struct {
	last, score uint64
	idle        int
	bytes       uint64
	tier, moved int
}

// refCandidate is a block a refDaemon wake may migrate.
type refCandidate struct {
	base        mem.Addr
	score, size uint64
	idle        int
}

// newRefDaemon wraps inner as New does. cfg must set every field New
// would default.
func newRefDaemon(inner app.Machine, cfg Config) *refDaemon {
	d := &refDaemon{
		al:       inner.Allocator(),
		tiers:    mem.NewTiers(cfg.Tiers),
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		heat:     cfg.Heat,
		blocks:   map[mem.Addr]refBlock{},
		patience: idleWakes,
	}
	d.tap = d.trapTap
	d.Interceptor = app.NewInterceptor(inner, d)
	if d.heat == nil {
		d.heat = obs.NewHeatMap(HeatObjects, 0)
		d.ownHeat = true
		inner.SetTrap(d.tap)
	}
	d.al.Place = d.place
	d.al.Track = func(a mem.Addr, live bool) {
		if b, ok := d.blocks[a]; ok && !live {
			d.forget(a, b)
		}
	}
	d.clock = agent.NewClock(cfg.Every, d.rng)
	return d
}

func (d *refDaemon) budget() uint64 {
	return max(uint64(float64(d.al.BytesLive)*d.cfg.FastFrac), d.cfg.MinBudget)
}

func (d *refDaemon) nearLive() uint64 {
	if d.farBytes >= d.al.BytesLive {
		return 0
	}
	return d.al.BytesLive - d.farBytes
}

func (d *refDaemon) place(size uint64) mem.Addr {
	if !d.inMalloc || d.inWake || size > d.cfg.MaxObjectBytes {
		return 0
	}
	take := roundUp(size + d.al.HeaderBytes)
	tier := 0
	if d.nearLive()+size > d.budget() {
		tier = d.tiers.Slowest()
	}
	a := d.tiers.Take(tier, take)
	if a == 0 {
		d.stats.SkippedArena++
		return 0
	}
	d.blocks[a] = refBlock{tier: tier, bytes: take}
	if tier > 0 {
		d.farBytes += take
		d.stats.Spills++
		d.stats.SpilledBytes += size
	} else {
		d.stats.Placed++
		d.stats.PlacedBytes += size
	}
	return a
}

func (d *refDaemon) trapTap(ev core.Event) {
	d.heat.RecordTrap(uint64(ev.Initial), 0)
	if d.guestTrap != nil {
		d.guestTrap(ev)
	}
}

func (d *refDaemon) tick() {
	if !d.inWake && d.clock.Tick(d.rng) {
		d.wake()
	}
}

func (d *refDaemon) record(a mem.Addr, store bool) {
	if d.ownHeat {
		d.heat.RecordAccess(uint64(a), uint64(a), store, 0)
	}
	if d.stats.Accesses == nil {
		d.stats.Accesses = make([]uint64, d.tiers.N())
	}
	t := d.tiers.TierOf(a)
	if base, ok := d.heat.Resolve(uint64(a)); ok {
		if b, ok := d.blocks[mem.Addr(base)]; ok && b.bytes > 0 {
			t = b.tier
		}
	}
	d.stats.Accesses[t]++
}

func (d *refDaemon) wake() {
	if d.cfg.OneShot && d.fired {
		return
	}
	d.fired = true
	d.inWake = true
	d.Machine.SetTrap(nil)
	defer func() {
		if d.ownHeat {
			d.Machine.SetTrap(d.tap)
		} else {
			d.Machine.SetTrap(d.guestTrap)
		}
		d.inWake = false
	}()
	d.stats.Wakes++
	ctx := opt.MachineContext(d.Machine)
	al := d.al
	budget := d.budget()
	maxMoves := d.cfg.MaxMoves
	if d.cfg.OneShot {
		maxMoves = oneShotMoves
	}
	pressure := d.stats.Spills - d.lastSpills
	d.lastSpills = d.stats.Spills
	demoting := pressure > 0 || d.cfg.OneShot

	var victims, promos []refCandidate
	remorse := 0
	al.EachLive(func(base mem.Addr, size uint64) {
		b := d.blocks[base]
		var cur uint64
		o, known := d.heat.Get(uint64(base))
		if known {
			cur = heatKey(&o)
		}
		delta := cur - b.last
		if cur < b.last {
			delta = cur
		}
		if delta == 0 {
			b.idle++
		} else {
			b.idle = 0
		}
		b.last, b.score = cur, b.score/2+delta
		d.blocks[base] = b
		if al.Pinned(base) || size == 0 || size > d.cfg.MaxObjectBytes {
			return
		}
		far := b.bytes > 0 && b.tier > 0
		if far && delta > 0 && b.moved > 0 {
			remorse++
		}
		if b.moved >= maxObjectMoves {
			return
		}
		c := refCandidate{base, b.score, size, b.idle}
		switch {
		case far:
			if d.cfg.PromoteMin > 0 && b.score >= d.cfg.PromoteMin {
				promos = append(promos, c)
			}
		case demoting && known && b.score == 0:
			victims = append(victims, c)
		}
	})
	if remorse > 0 {
		d.stats.Remorse += uint64(remorse)
		d.patience = min(2*d.patience, maxPatience)
	} else if d.patience > idleWakes {
		d.patience--
	}
	target := budget - uint64(float64(budget)*headroom)
	if d.nearLive() > target && demoting {
		victims = slices.DeleteFunc(victims, func(c refCandidate) bool { return c.idle < d.patience })
		slices.SortFunc(victims, func(a, b refCandidate) int {
			return cmp.Or(cmp.Compare(a.score, b.score), cmp.Compare(a.base, b.base))
		})
		moves := 0
		for _, v := range victims {
			if d.nearLive() <= target || moves >= maxMoves {
				break
			}
			if !d.migrate(ctx, v.base, v.size, d.tiers.Slowest()) {
				break
			}
			moves++
		}
	}
	slices.SortFunc(promos, func(a, b refCandidate) int {
		return cmp.Or(cmp.Compare(b.score, a.score), cmp.Compare(a.base, b.base))
	})
	moves := 0
	for _, p := range promos {
		if moves >= maxMoves {
			break
		}
		if d.nearLive()+roundUp(p.size) > budget {
			d.stats.SkippedBudget++
			continue
		}
		if !d.migrate(ctx, p.base, p.size, 0) {
			break
		}
		moves++
	}
}

func (d *refDaemon) forget(base mem.Addr, b refBlock) {
	if b.bytes > 0 {
		d.tiers.Release(b.tier, b.bytes)
		if b.tier > 0 {
			d.farBytes -= b.bytes
		}
	}
	delete(d.blocks, base)
}

func (d *refDaemon) migrate(ctx opt.Context, base mem.Addr, size uint64, tier int) bool {
	tgt := d.tiers.Take(tier, size)
	if tgt == 0 {
		d.stats.SkippedArena++
		return false
	}
	repaired, err := agent.Relocate(d.Machine, ctx, base, tgt, int(size/mem.WordSize))
	if err != nil {
		d.tiers.Release(tier, roundUp(size))
		d.stats.Aborted++
		return true
	}
	if repaired {
		d.stats.Repaired++
	}
	b := d.blocks[base]
	if b.bytes > 0 {
		d.tiers.Release(b.tier, b.bytes)
		if b.tier > 0 {
			d.farBytes -= b.bytes
		}
	}
	b.tier, b.bytes = tier, roundUp(size)
	if tier > 0 {
		d.farBytes += b.bytes
	}
	b.moved++
	d.blocks[base] = b
	if tier == 0 {
		d.stats.Promotions++
		d.stats.PromotedBytes += size
	} else {
		d.stats.Demotions++
		d.stats.DemotedBytes += size
	}
	return true
}

func (d *refDaemon) Load(a mem.Addr, size uint) uint64 {
	d.tick()
	d.record(a, false)
	return d.Machine.Load(a, size)
}

func (d *refDaemon) Store(a mem.Addr, v uint64, size uint) {
	d.tick()
	d.record(a, true)
	d.Machine.Store(a, v, size)
}

func (d *refDaemon) SetTrap(h core.TrapHandler) {
	d.guestTrap = h
	if d.ownHeat {
		d.Machine.SetTrap(d.tap)
		return
	}
	d.Machine.SetTrap(h)
}

func (d *refDaemon) Malloc(n uint64) mem.Addr {
	d.tick()
	d.inMalloc = true
	a := d.Machine.Malloc(n)
	d.inMalloc = false
	if d.ownHeat {
		d.heat.OnAlloc(uint64(a), n)
	}
	return a
}

func (d *refDaemon) Free(a mem.Addr) {
	if b, ok := d.blocks[a]; ok {
		d.forget(a, b)
	}
	d.tick()
	d.Machine.Free(a)
	if d.ownHeat {
		d.heat.OnFree(uint64(a))
	}
}

func (d *refDaemon) Stats() Stats {
	s := d.stats
	s.Accesses = append([]uint64(nil), d.stats.Accesses...)
	return s
}
