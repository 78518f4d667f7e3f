// Package tier implements the online adaptive memory-tiering daemon —
// the OBASE direction applied to the paper's mechanism. The paper's
// guarantee is that relocation is always safe; tiering is the modern
// payoff: if an object can be moved at any time, its *placement* in a
// latency-tiered physical address space can be re-decided continuously,
// online, instead of once by an offline pass.
//
// Geometry: the guest heap is NEAR memory (tier 0) — data is born
// fast, as in a DRAM-plus-CXL system — and tiers 1..N-1 are far
// windows. Near memory is finite: the daemon holds near residency to a
// budget (FastFrac of live heap bytes, floored at MinBudget) with two
// levers. First, *demotion*: cold near-resident objects are relocated
// into the far window through the production opt.TryRelocate two-phase
// commit, so the forwarding chain keeps them reachable while their
// bytes stop competing for near capacity. Second, *spill placement*:
// when near memory is over budget anyway, the daemon's mem.Allocator
// Place hook routes new allocations straight into the far window — a
// direct address with no forwarding chain at all. Demotion is the
// lever that matters because of how forwarding is priced in this
// machine: every access to a relocated object walks its chain through
// the cache starting at the *original* address, so moving a hot object
// never beats leaving it (the chain walk re-touches the old location),
// while moving a cold object costs almost nothing and buys headroom
// that lets the allocator keep placing new, hot data near. Promotion
// (hauling a far-resident object into tier 0's near-latency window)
// exists as a mechanism and fires only for objects that turn
// decisively hot (PromoteMin), precisely because of that chain-walk
// price.
//
// The Daemon wraps an app.Machine through app.Interceptor: it hooks
// the guest's data operations, counts them on an agent.Clock — no wall
// time anywhere, so runs are deterministic and replay from a seed — and
// wakes every ~Every operations to re-rank objects. Ranking input is an
// obs.HeatMap (decayed per-object loads/stores plus the trap
// attribution the fprof profiler keys off the same map) — either the
// machine's own map, shared in, or a private map the daemon feeds from
// its interception point.
//
// Every migration goes through agent.Relocate, the production
// opt.TryRelocate two-phase commit, so online tiering inherits the
// whole safety story for free: Figure 4(a) chain-append legality,
// journaling through the machine-global fault injector, if one is
// installed, and roll-forward from the journal (fault.Scavenge) — a
// crash induced mid-migration is recovered and the move completes,
// exactly as the crash-consistency harness proves for offline
// relocation. The differential and chaos harnesses run unchanged with
// the daemon enabled: a migrator that changed what the program
// computes would be a safety-claim violation, and the tests treat it
// as one.
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

// Config parameterizes a Daemon. Tiers is required; everything else
// has workable defaults.
type Config struct {
	// Tiers is the tier geometry spec (shared with the machine's
	// sim.Config.Tiers so daemon and timing model agree on every
	// address's tier).
	Tiers *mem.TierConfig

	// Seed drives the wake jitter; runs replay deterministically.
	Seed int64

	// Every is the mean number of guest operations between wakes
	// (default 4096; at most agent.MaxEvery).
	Every int

	// FastFrac is the near-memory residency budget as a fraction of
	// the allocator's live heap bytes (default 0.25).
	FastFrac float64

	// MinBudget floors the near budget in bytes (default 64KB), so a
	// small or starting workload is not forced far by a near-zero
	// fraction of its near-zero live bytes.
	MinBudget uint64

	// MaxMoves bounds demotions per wake (default 64); promotions get
	// the same budget again. The safety gates (idle patience, spill
	// pressure, heat-map evidence) pick the victims; this only spreads
	// the move work across wakes. Demotion benefit accrues solely to
	// allocations made after the budget is freed, so draining the idle
	// pool too slowly forfeits most of it.
	MaxMoves int

	// MaxObjectBytes bounds what the daemon will move or spill
	// (default 1MB).
	MaxObjectBytes uint64

	// PromoteMin is the access-delta bar a far-resident object must
	// clear between two wakes before the daemon hauls it back near
	// (default 1024, a quarter of the default Every — promotion pays
	// the chain-walk price forever, so the bar is high). 0 disables
	// promotion entirely.
	PromoteMin uint64

	// OneShot makes the daemon a paper-style static optimizer: the
	// first wake runs one big demotion pass over the heat observed so
	// far (capped by oneShotMoves, not MaxMoves), then the policy goes
	// quiet forever. The spill placement hook stays live — near
	// capacity is physics, not policy — but residency is never
	// re-decided, which is exactly what the adaptive daemon fixes.
	OneShot bool

	// Heat, when non-nil, is an external heat map to consume (normally
	// the machine's own, which then also carries full trap-cost and
	// hop attribution). When nil the daemon feeds a private map from
	// its own interception point.
	Heat *obs.HeatMap
}

// Stats is the daemon's accounting, exposed to /metrics gauges and the
// figure pipeline.
type Stats struct {
	Wakes         uint64
	Promotions    uint64
	Demotions     uint64
	PromotedBytes uint64
	DemotedBytes  uint64

	// Placed counts allocations the Place hook carved from the tier-0
	// near window (the tiered allocator's default home for guest
	// data); Spills counts the ones routed to the far window instead
	// because near memory was over budget.
	Placed       uint64
	PlacedBytes  uint64
	Spills       uint64
	SpilledBytes uint64

	// Aborted counts migrations TryRelocate refused (error without an
	// injector armed); the heap stays consistent — phase-1 copies are
	// invisible until planted — but the arena bytes are wasted.
	Aborted uint64
	// Repaired counts migrations torn by an injected fault and rolled
	// forward from their journal by fault.Scavenge.
	Repaired uint64

	SkippedBudget uint64 // promotion candidates past the near budget
	SkippedArena  uint64 // window exhausted

	// Remorse counts demoted blocks later caught with fresh accesses —
	// demotions the policy now knows were mistakes. Each remorseful
	// wake doubles the daemon's working idle patience.
	Remorse uint64

	// Accesses counts intercepted guest loads+stores by the tier the
	// touched object currently resides in (unattributed accesses count
	// as tier 0: untracked data lives on the near heap).
	Accesses []uint64
}

// HitRate returns the fraction of attributed accesses that landed in
// tier i.
func (s *Stats) HitRate(i int) float64 {
	var total uint64
	for _, n := range s.Accesses {
		total += n
	}
	if total == 0 || i >= len(s.Accesses) {
		return 0
	}
	return float64(s.Accesses[i]) / float64(total)
}

// block is the daemon's record of one live block: see the
// Daemon.blocks field doc.
type block struct {
	// Ranking state carried from the previous wake.
	last  uint64 // cumulative heatKey at the previous wake
	score uint64 // EWMA of per-wake deltas
	idle  int    // consecutive wakes with a zero delta

	// Residency: bytes > 0 when the block's data lives in a tier window
	// (spilled, demoted, or promoted back), word-rounded to match
	// Take/Release accounting.
	bytes uint64
	tier  int
	moved int // migrations so far, bounding promote/demote thrash
}

// candidate is a block a wake may migrate.
type candidate struct {
	base  mem.Addr
	score uint64
	size  uint64
	idle  int
}

// Daemon is the migrator. Like the machine it wraps, it is not safe
// for concurrent use; in the session server it lives under the same
// gate that serializes the machine.
type Daemon struct {
	app.Interceptor
	al    *mem.Allocator
	tiers *mem.Tiers
	cfg   Config
	rng   *rand.Rand
	clock agent.Clock

	inWake   bool
	inMalloc bool // a timed guest Malloc is on the stack: spill placement may apply
	fired    bool // OneShot policy completed

	heat    *obs.HeatMap
	ownHeat bool

	guestTrap core.TrapHandler
	tap       core.TrapHandler // trapTap, bound once so wakes re-install it for free

	// blocks holds one record per block base: its residency (the
	// window its data currently lives in), its migration count, and
	// the ranking state carried between wakes. Bases are object
	// identity (TryRelocate leaves the base forwarding, and a spilled
	// object's base *is* its window address), so records stay valid
	// across any number of moves. Free drops a record; a wake drops the
	// records of blocks the allocator no longer has (untimed frees).
	//
	// The ranking state is the cumulative heat seen at the previous
	// wake (so each wake can take a delta) and an exponential moving
	// average of those deltas, which is the score policy actually ranks
	// on. Cumulative totals invert the signal (a long-lived object on
	// its way out ranks hotter than a just-born hot one); a raw
	// single-window delta overcorrects (an object mid-way through a
	// traversal cycle longer than one wake scores zero and gets demoted
	// while still hot). The EWMA — halved each wake, then bumped by the
	// fresh delta — is the middle ground: recency-weighted with a few
	// wakes of memory. A block born since the previous wake has no
	// record, or the zero-ranked one its spill placement made; only a
	// base freed untimed and reused before the wake keeps the old
	// block's record.
	blocks map[mem.Addr]block

	// farBytes is the rounded total of resident bytes in tiers >= 1,
	// so nearLive is O(1) on the allocation path.
	farBytes uint64

	// patience is the working idle-wake bar for demotion, seeded from
	// idleWakes and self-tuned: doubled while demoted blocks keep
	// turning hot again (remorse), relaxed by one when they don't.
	patience int

	// lastSpills is Stats.Spills at the previous wake; the difference
	// is current allocation pressure, which gates demotion.
	lastSpills uint64

	// victims and promos are the wake's candidate buffers, kept across
	// wakes so a steady-state wake allocates nothing.
	victims, promos []candidate

	stats Stats
}

var _ app.Machine = (*Daemon)(nil)

const maxObjectMoves = 32

// HeatObjects sizes a heat map the daemon ranks from, shared or
// private: large enough to track every live block of the workloads
// this simulator runs, because residency decisions refuse to act on
// untracked blocks.
const HeatObjects = 1 << 16

// maxPatience caps the self-tuned idle bar; past this the daemon has
// effectively concluded the workload never goes idle and stops
// demoting for the rest of a typical run.
const maxPatience = 1 << 12

const (
	// headroom is the fraction of the near budget the daemon keeps free
	// by demoting cold data. This is what makes the daemon *adaptive*:
	// new allocations are hot by recency, so each wake demotes the
	// coldest near residents until that much of the budget is free, and
	// the next phase's data lands near instead of spilling. Spill
	// placement itself only fires at the full budget; headroom is
	// purely the demotion target.
	headroom = 0.25

	// oneShotMoves is the demotion cap for a OneShot pass, which gets
	// one chance to move everything worth moving.
	oneShotMoves = 64

	// idleWakes is how many consecutive zero-delta wakes a block must
	// sit through before it is demotable. Data traversed on a cycle
	// longer than one wake window looks momentarily cold; patience
	// separates "between touches" from "never coming back". This is
	// only the starting patience: each wake the daemon counts demoted
	// blocks that turned hot again (remorse) and doubles its working
	// patience while mistakes keep surfacing, relaxing back one wake at
	// a time when they stop.
	idleWakes = 16
)

// New wraps inner with a tiering daemon and installs its spill
// placement hook on inner's allocator. The wrapped machine — not
// inner — must be handed to the guest, or the daemon never ticks.
func New(inner app.Machine, cfg Config) *Daemon {
	if cfg.Tiers == nil {
		panic("tier: Config.Tiers is required")
	}
	if cfg.Every <= 0 {
		cfg.Every = 4096
	}
	if cfg.FastFrac <= 0 || cfg.FastFrac > 1 {
		cfg.FastFrac = 0.25
	}
	if cfg.MinBudget == 0 {
		cfg.MinBudget = 64 << 10
	}
	if cfg.MaxMoves <= 0 {
		cfg.MaxMoves = 64
	}
	if cfg.MaxObjectBytes == 0 {
		cfg.MaxObjectBytes = 1 << 20
	}
	if cfg.PromoteMin == 0 {
		cfg.PromoteMin = 1024
	}
	d := &Daemon{
		al:       inner.Allocator(),
		tiers:    mem.NewTiers(cfg.Tiers),
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		heat:     cfg.Heat,
		blocks:   make(map[mem.Addr]block),
		patience: idleWakes,
	}
	d.tap = d.trapTap
	d.Interceptor = app.NewInterceptor(inner, d)
	if d.heat == nil {
		// Sized for whole-heap coverage: residency policy treats an
		// untracked block as unknowable, so a telemetry-sized table
		// (DefaultHeatObjects) would leave most of a list-heavy heap
		// unmanageable.
		d.heat = obs.NewHeatMap(HeatObjects, 0)
		d.ownHeat = true
	}
	// Install the trap tap so trap attribution flows into a private
	// heat map even if the guest never installs a handler.
	if d.ownHeat {
		inner.SetTrap(d.tap)
	}
	d.al.Place = d.place
	d.clock = agent.NewClock(cfg.Every, d.rng)
	return d
}

// Tiers returns the daemon's realized tier geometry (same spec, hence
// same geometry, as the wrapped machine's). The daemon's instance is
// the single carver of window space; the machine's own copy only
// answers latency lookups.
func (d *Daemon) Tiers() *mem.Tiers { return d.tiers }

// Rebind re-caches the wrapped machine's allocator and re-installs the
// placement hook on it. For hosts that swap the underlying machine out
// from under the interception chain (the session server's live
// migration): the daemon — residency map, window cursors, ranking
// state — is host state and persists across the swap, but the
// allocator is machine state and does not. Call with the machine
// quiesced, after the swap.
func (d *Daemon) Rebind() {
	d.al = d.Machine.Allocator()
	d.al.Place = d.place
}

// Stats returns a copy of the daemon's accounting.
func (d *Daemon) Stats() Stats {
	s := d.stats
	s.Accesses = append([]uint64(nil), d.stats.Accesses...)
	return s
}

// Heat returns the heat map the daemon consumes.
func (d *Daemon) Heat() *obs.HeatMap { return d.heat }

// NearLive returns the bytes of live heap data currently resident in
// near memory (tier 0).
func (d *Daemon) NearLive() uint64 { return d.nearLive() }

// FarLive returns the bytes of live heap data currently resident in
// far windows (tiers >= 1).
func (d *Daemon) FarLive() uint64 { return d.farBytes }

// RegisterMetrics exposes the daemon's accounting as gauges.
func (d *Daemon) RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("tier.wakes", func() float64 { return float64(d.stats.Wakes) })
	r.GaugeFunc("tier.promotions", func() float64 { return float64(d.stats.Promotions) })
	r.GaugeFunc("tier.demotions", func() float64 { return float64(d.stats.Demotions) })
	r.GaugeFunc("tier.spills", func() float64 { return float64(d.stats.Spills) })
	r.GaugeFunc("tier.near.bytesLive", func() float64 { return float64(d.nearLive()) })
	r.GaugeFunc("tier.far.bytesLive", func() float64 { return float64(d.farBytes) })
	r.GaugeFunc("tier.near.hitRate", func() float64 {
		s := d.stats
		return s.HitRate(0)
	})
}

// budget is the near-memory residency target in bytes.
func (d *Daemon) budget() uint64 {
	b := uint64(float64(d.al.BytesLive) * d.cfg.FastFrac)
	if b < d.cfg.MinBudget {
		b = d.cfg.MinBudget
	}
	return b
}

// nearLive is the live heap bytes resident in near memory: everything
// the allocator carries minus what lives in far windows.
func (d *Daemon) nearLive() uint64 {
	if d.farBytes >= d.al.BytesLive {
		return 0
	}
	return d.al.BytesLive - d.farBytes
}

// place is the allocator's Place hook — the tiered allocator itself.
// Every timed guest allocation is carved from a tier arena: the tier-0
// window while near memory has budget room, the far window once it is
// over budget (a direct far address, no forwarding chain — "spilled").
// Placement physics is identical for the static and adaptive arms;
// what the adaptive daemon changes is how much budget is free when an
// allocation arrives. Untimed allocations (arena carving, heap
// pre-aging) always stay on the legacy heap: they are experiment
// scaffolding, not guest data the daemon is entitled to place.
func (d *Daemon) place(size uint64) mem.Addr {
	if !d.inMalloc || d.inWake || size > d.cfg.MaxObjectBytes {
		return 0
	}
	// Pad like the heap does: the windows are served by the same
	// malloc, so a placed block must not be denser than a heap block —
	// otherwise placement would smuggle in a layout optimization
	// instead of modeling tier residency.
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
	d.blocks[a] = block{tier: tier, bytes: take}
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

// trapTap records trap attribution into the private heat map and
// forwards to the guest's handler.
func (d *Daemon) trapTap(ev core.Event) {
	d.heat.RecordTrap(uint64(ev.Initial), 0)
	if d.guestTrap != nil {
		d.guestTrap(ev)
	}
}

// tick is the daemon's clock: one call per intercepted guest
// operation, a wake when the countdown expires.
func (d *Daemon) tick() {
	if !d.inWake && d.clock.Tick(d.rng) {
		d.wake()
	}
}

// record attributes one guest access to the tier the touched data
// currently resides in, and feeds the private heat map when the daemon
// owns it.
func (d *Daemon) record(a mem.Addr, store bool) {
	if d.ownHeat {
		d.heat.RecordAccess(uint64(a), uint64(a), store, 0)
	}
	if d.stats.Accesses == nil {
		d.stats.Accesses = make([]uint64, d.tiers.N())
	}
	// Geometry answers for direct addresses (heap and spilled blocks);
	// the residency map corrects for relocated objects, whose guest
	// address is the near base but whose data lives where it was moved.
	t := d.tiers.TierOf(a)
	if base, ok := d.heat.Resolve(uint64(a)); ok {
		if b, ok := d.blocks[mem.Addr(base)]; ok && b.bytes > 0 {
			t = b.tier
		}
	}
	d.stats.Accesses[t]++
}

// heatKey ranks a candidate: decayed loads+stores plus the trap count
// the profiler attributed to the object. Forwarding traps are paid on
// the access path, so a trap-heavy object is exactly as worth keeping
// near as a load-heavy one.
func heatKey(o obs.HeatObject) uint64 { return o.Loads + o.Stores + o.Traps }

// wake runs one policy pass: drop dead residencies, demote the coldest
// near-resident objects while near memory is over budget, then haul
// back any far-resident object that turned decisively hot. Guest traps
// are masked for the duration — the daemon models an agent outside the
// program, and its migrations must not invoke guest trap code.
//
// The pass visits the live set in the allocator's map order and
// updates each block's record in place. Visit order cannot change a
// decision: the ranking state is per block, remorse is a count, and
// victims and promotions are sorted by total orders — (score, base)
// and (score descending, base) — before any of them moves.
func (d *Daemon) wake() {
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
	// The daemon runs on the guest's hart as part of the machine's own
	// execution, so its migrations take the machine's context: the
	// barrier and span table of the chain below, and the machine-global
	// injector, read once per wake.
	ctx := opt.MachineContext(d.Machine)

	al := d.al
	budget := d.budget()
	maxMoves := d.cfg.MaxMoves
	if d.cfg.OneShot {
		maxMoves = oneShotMoves
	}
	// Demotion is worth its move cost only if the freed budget gets
	// used: when no allocation spilled since the last wake, nothing is
	// asking for near memory and a demotion would buy headroom nobody
	// spends (near latency is per-address — unoccupied budget earns
	// nothing). A OneShot pass is exempt: it is the one chance to act
	// on whatever pressure the whole warmup showed.
	pressure := d.stats.Spills - d.lastSpills
	d.lastSpills = d.stats.Spills
	demoting := pressure > 0 || d.cfg.OneShot

	// Score every live block by its access delta since the last wake (a
	// OneShot pass sees lifetime totals — all it can know), and gather
	// the blocks each lever may move.
	victims, promos := d.victims[:0], d.promos[:0]
	remorse, visited := 0, 0
	al.EachLive(func(base mem.Addr, size uint64) {
		visited++
		b := d.blocks[base]
		var cur uint64
		o, known := d.heat.Get(uint64(base))
		if known {
			cur = heatKey(o)
		}
		delta := cur - b.last
		if cur < b.last {
			// Decay epoch or identity reuse shrank the counter; the
			// current value is the freshest signal there is.
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
		// A block the daemon itself demoted (spills have moved == 0)
		// showing fresh accesses is a caught mistake: it now pays a
		// chain walk per touch that leaving it alone would not have.
		if far && delta > 0 && b.moved > 0 {
			remorse++
		}
		if b.moved >= maxObjectMoves {
			return
		}
		c := candidate{base, b.score, size, b.idle}
		switch {
		case far:
			if d.cfg.PromoteMin > 0 && b.score >= d.cfg.PromoteMin {
				promos = append(promos, c)
			}
		case demoting && known && b.score == 0:
			// A block the heat map does not track is unknown, not
			// cold — an evicted-but-hot block demoted on absence of
			// evidence would pay a chain walk on every later access.
			victims = append(victims, c)
		}
	})
	d.victims, d.promos = victims, promos
	// Every live block now has a record; any other record belongs to a
	// block freed without passing through Free (untimed), whose
	// residency releases its tier bytes here.
	if len(d.blocks) > visited {
		for base, b := range d.blocks {
			if !al.Live(base) {
				d.forget(base, b)
			}
		}
	}

	// Self-tuning patience: while demotion mistakes keep surfacing,
	// back off aggressively (the workload's re-touch cycle is longer
	// than the current bar); when they stop, relax one wake at a time
	// toward the configured floor.
	if remorse > 0 {
		d.stats.Remorse += uint64(remorse)
		d.patience *= 2
		if d.patience > maxPatience {
			d.patience = maxPatience
		}
	} else if d.patience > idleWakes {
		d.patience--
	}

	// Demote: only blocks whose EWMA has decayed to zero — confirmed
	// idle for at least patience consecutive wakes, not merely quiet in
	// one window. Demoting anything still warm is pure loss (the move
	// cost plus a forwarding hop on every later access, versus a freed
	// budget slice that near memory never needed — latency here is
	// per-address, not per-occupancy). Demoting the truly idle is the
	// adaptive lever: it frees budget so the next phase's allocations
	// are born near instead of spilling far, which a one-shot pass
	// cannot do once its moment has passed.
	target := budget - uint64(float64(budget)*headroom)
	if d.nearLive() > target && demoting {
		victims = slices.DeleteFunc(victims, func(c candidate) bool { return c.idle < d.patience })
		slices.SortFunc(victims, func(a, b candidate) int {
			return cmp.Or(cmp.Compare(a.score, b.score), cmp.Compare(a.base, b.base))
		})
		moves := 0
		for _, v := range victims {
			if d.nearLive() <= target || moves >= maxMoves {
				break
			}
			if !d.migrate(ctx, v.base, v.size, d.tiers.Slowest()) {
				break // window exhausted; no point trying further victims
			}
			moves++
		}
	}

	// Promote: a far-resident object hot enough to clear PromoteMin
	// since the last wake earns near-latency space from tier 0's
	// window — if the budget has room for it.
	slices.SortFunc(promos, func(a, b candidate) int {
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

func roundUp(n uint64) uint64 { return (n + mem.WordSize - 1) &^ uint64(mem.WordSize-1) }

// forget drops a dead block's record, releasing its window accounting.
func (d *Daemon) forget(base mem.Addr, b block) {
	if b.bytes > 0 {
		d.tiers.Release(b.tier, b.bytes)
		if b.tier > 0 {
			d.farBytes -= b.bytes
		}
	}
	delete(d.blocks, base)
}

// migrate moves the object at base into tier's window through
// agent.Relocate in the wake's context ctx: with a fault injector
// installed on the machine, an induced crash is recovered and the torn
// move rolled forward from its journal — the crash-consistency
// guarantee applied to online migration. Returns false when the window
// is exhausted (the caller's signal to stop for this wake).
func (d *Daemon) migrate(ctx opt.Context, base mem.Addr, size uint64, tier int) bool {
	tgt := d.tiers.Take(tier, size)
	if tgt == 0 {
		d.stats.SkippedArena++
		return false
	}
	repaired, err := agent.Relocate(d.Machine, ctx, base, tgt, int(size/mem.WordSize))
	if err != nil {
		// A refused relocation is clean: phase-1 copies are invisible
		// until planted, so the heap is untouched; only window bytes
		// are wasted.
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

// --- guest-operation interception -----------------------------------
//
// The daemon clock advances on the guest's data operations only; every
// other app.Machine method reaches the inner machine through the
// embedded app.Interceptor.

// Load intercepts a load: clock tick, heat/residency attribution,
// delegate.
func (d *Daemon) Load(a mem.Addr, size uint) uint64 {
	d.tick()
	d.record(a, false)
	return d.Machine.Load(a, size)
}

// Store intercepts a store symmetrically.
func (d *Daemon) Store(a mem.Addr, v uint64, size uint) {
	d.tick()
	d.record(a, true)
	d.Machine.Store(a, v, size)
}

// SetTrap records the guest handler (so wakes can mask it and the trap
// tap can chain to it) and delegates — through the tap when the daemon
// feeds its own heat map.
func (d *Daemon) SetTrap(h core.TrapHandler) {
	d.guestTrap = h
	if d.ownHeat {
		d.Machine.SetTrap(d.tap)
		return
	}
	d.Machine.SetTrap(h)
}

// Malloc intercepts an allocation: clock tick, delegate with the spill
// placement hook armed, feed the private heat map.
func (d *Daemon) Malloc(n uint64) mem.Addr {
	d.tick()
	d.inMalloc = true
	a := d.Machine.Malloc(n)
	d.inMalloc = false
	if d.ownHeat {
		d.heat.OnAlloc(uint64(a), n)
	}
	return a
}

// Free intercepts a deallocation: release residency, tick, delegate.
func (d *Daemon) Free(a mem.Addr) {
	// A freed base may be recycled before the next wake; stale heat
	// history must not be charged to the newcomer.
	if b, ok := d.blocks[a]; ok {
		d.forget(a, b)
	}
	d.tick()
	d.Machine.Free(a)
	if d.ownHeat {
		d.heat.OnFree(uint64(a))
	}
}
