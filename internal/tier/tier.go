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
	"math/bits"
	"math/rand"
	"slices"

	"memfwd/internal/addrtab"
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
	// Ranking state as of wake at. While the block's heat stays as it
	// was, the state after k more wakes follows in closed form (ranked):
	// the score halves k times, idle grows by k, and last stays.
	last  uint64 // cumulative heatKey at wake at
	score uint64 // EWMA of per-wake deltas
	at    uint64 // the wake the state reflects
	idle  int32  // consecutive wakes with a zero delta

	// hid is the heat profile the block ranks by, 0 when the heat map
	// tracks none.
	hid uint32

	// Residency: bytes > 0 when the block's data lives in a tier window
	// (spilled, demoted, or promoted back), word-rounded to match
	// Take/Release accounting.
	bytes uint64
	tier  uint8
	moved uint8 // migrations so far, bounding promote/demote thrash

	// fresh marks a block born since wake at and not yet matched to
	// its heat profile. cold marks a block in the daemon's demotion set,
	// hot one on its promotion watch list, and due one with an entry
	// pending on the due wheel.
	fresh, cold, hot, due bool
}

// far reports whether the block's data lives in a far tier.
func (b *block) far() bool { return b.bytes > 0 && b.tier > 0 }

// ranked returns the block's score and idle count at wake w >= b.at,
// its heat unchanged since b.at.
func (b *block) ranked(w uint64) (score uint64, idle int) {
	k := w - b.at
	return b.score >> k, int(b.idle) + int(k)
}

// coldAt returns the first wake at which the block, its heat unchanged,
// has a zero score and has been idle for idleWakes wakes.
func (b *block) coldAt() uint64 {
	n := uint64(bits.Len64(b.score))
	if b.idle < idleWakes {
		n = max(n, uint64(idleWakes-int(b.idle)))
	}
	return b.at + n
}

// candidate is a block a wake may promote.
type candidate struct {
	base  mem.Addr
	score uint64
	size  uint64
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

	// Allocator and heat-log hooks, bound once (onTrack, onChange).
	track   func(mem.Addr, bool)
	changed func(uint32, uint64)

	// blocks holds one record per live block, keyed by base: its
	// residency (the window its data currently lives in), its migration
	// count, and the ranking state carried between wakes. Bases are
	// object identity (TryRelocate leaves the base forwarding, and a
	// spilled object's base *is* its window address), so records stay
	// valid across any number of moves. A block's record is made at the
	// first wake after its birth (at its birth, for a spill placement)
	// and dropped by the allocator's Track hook the moment the block is
	// freed, on every path, so a newcomer at a recycled base starts
	// from a fresh record.
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
	// wakes of memory. A wake updates only the records whose heat or
	// identity the heat map logged as changed, and those born since the
	// previous wake; every other record is exact in closed form.
	blocks addrtab.Table[block]

	// born lists the blocks born since the previous wake: the next
	// wake makes their records and matches each to the profile the heat
	// map then holds for its base.
	born []mem.Addr

	// epochs is the heat map's decay epoch count at the previous wake:
	// an epoch halves every counter, so the wake after one updates
	// every record.
	epochs uint64

	// cold is the demotion set: near, tracked blocks whose score has
	// decayed to 0 after at least idleWakes idle wakes, in base order,
	// so a wake's victims are a prefix walk. A block goes on the due
	// wheel, in the slot of the wake at which it would join, until then.
	// hot is the promotion watch list: far blocks whose score cleared
	// PromoteMin at their last update.
	cold  baseSet
	wheel [dueSlots][]mem.Addr
	hot   []mem.Addr

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

	// remorse counts the wake's remorseful updates.
	remorse int

	// promos and demoted are the wake's buffers, kept across wakes so a
	// steady-state wake allocates nothing.
	promos  []candidate
	demoted []mem.Addr

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

	// dueSlots sizes the due wheel: more slots than the longest wait
	// for the demotion set, 64 halvings of a score.
	dueSlots = 128
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
		blocks:   addrtab.New[block](0),
		patience: idleWakes,
	}
	d.tap, d.track, d.changed = d.trapTap, d.onTrack, d.onChange
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
	d.al.Place, d.al.Track = d.place, d.track
	d.clock = agent.NewClock(cfg.Every, d.rng)
	return d
}

// Tiers returns the daemon's realized tier geometry (same spec, hence
// same geometry, as the wrapped machine's). The daemon's instance is
// the single carver of window space; the machine's own copy only
// answers latency lookups.
func (d *Daemon) Tiers() *mem.Tiers { return d.tiers }

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
	d.blocks.Put(uint64(a), block{bytes: take, tier: uint8(tier), fresh: true, at: d.stats.Wakes})
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
		if b := d.blocks.Ref(base); b != nil && b.bytes > 0 {
			t = int(b.tier)
		}
	}
	d.stats.Accesses[t]++
}

// heatKey ranks a candidate: decayed loads+stores plus the trap count
// the profiler attributed to the object. Forwarding traps are paid on
// the access path, so a trap-heavy object is exactly as worth keeping
// near as a load-heavy one.
func heatKey(o *obs.HeatObject) uint64 { return o.Loads + o.Stores + o.Traps }

// onTrack is the allocator's Track hook: a block born goes on the born
// list for the next wake, and a block freed loses its record at once.
func (d *Daemon) onTrack(a mem.Addr, live bool) {
	switch {
	case !live:
		d.drop(a)
	case !d.cfg.OneShot || !d.fired:
		d.born = append(d.born, a)
	}
}

// drop forgets a dead block's record, releasing its window accounting
// and its candidacy.
func (d *Daemon) drop(a mem.Addr) {
	b := d.blocks.Ref(uint64(a))
	if b == nil {
		return
	}
	if b.bytes > 0 {
		d.tiers.Release(int(b.tier), b.bytes)
		if b.tier > 0 {
			d.farBytes -= b.bytes
		}
	}
	if b.cold {
		d.cold.remove(a)
	}
	if b.hot {
		i := slices.Index(d.hot, a)
		d.hot[i] = d.hot[len(d.hot)-1]
		d.hot = d.hot[:len(d.hot)-1]
	}
	d.blocks.Delete(uint64(a))
}

// onChange updates the records a logged heat profile id names: the
// block that held the id when it was logged, if the id has since been
// released or handed to another block, and the block it names now.
func (d *Daemon) onChange(id uint32, was uint64) {
	w := d.stats.Wakes
	o := d.heat.Profile(id)
	if o == nil || o.Base != was {
		if b := d.blocks.Ref(was); b != nil && b.hid == id && b.at < w {
			d.update(mem.Addr(was), b) // finds its profile gone
		}
	}
	if o != nil {
		if b := d.blocks.Ref(o.Base); b != nil && b.at < w {
			b.hid, b.fresh = id, false
			d.update(mem.Addr(o.Base), b)
		}
	}
}

// update brings b, the record of the live block at base, to the
// current wake: the quiet wakes since b.at in closed form, then this
// wake's access delta, read through the block's heat profile id. A
// fresh block first looks its profile up by base.
func (d *Daemon) update(base mem.Addr, b *block) {
	w := d.stats.Wakes
	if b.fresh {
		b.hid, _ = d.heat.ID(uint64(base))
		b.fresh = false
	}
	var cur uint64
	if o := d.heat.Profile(b.hid); o != nil && o.Base == uint64(base) {
		cur = heatKey(o)
	} else {
		b.hid = 0
	}
	score, idle := b.ranked(w - 1)
	delta := cur - b.last
	if cur < b.last {
		// Decay epoch or identity reuse shrank the counter; the
		// current value is the freshest signal there is.
		delta = cur
	}
	if delta == 0 {
		idle++
	} else {
		idle = 0
	}
	b.last, b.score, b.idle, b.at = cur, score/2+delta, int32(idle), w
	// A block the daemon itself demoted (spills have moved == 0)
	// showing fresh accesses is a caught mistake: it now pays a chain
	// walk per touch that leaving it alone would not have.
	if delta > 0 && b.far() && b.moved > 0 {
		if _, ok := d.movable(base); ok {
			d.remorse++
		}
	}
	if b.far() && b.score >= d.cfg.PromoteMin && !b.hot {
		b.hot = true
		d.hot = append(d.hot, base)
	}
	d.settle(base, b)
}

// movable returns the size of the block at base and whether the daemon
// may move it at all: not an arena, and of a size it moves.
func (d *Daemon) movable(base mem.Addr) (uint64, bool) {
	size, _ := d.al.SizeOf(base)
	return size, !d.al.Pinned(base) && size != 0 && size <= d.cfg.MaxObjectBytes
}

// settle files the block in the demotion set when it belongs there at
// this wake: near, tracked by the heat map, its score decayed to 0 and
// idle for at least idleWakes wakes. A near, tracked block not yet that
// cold goes on the due wheel at the wake it would join, unless it has
// an entry pending; that entry re-settles it when it comes due.
func (d *Daemon) settle(base mem.Addr, b *block) {
	w := d.stats.Wakes
	due := b.coldAt()
	near := b.hid != 0 && !b.far()
	if in := near && due <= w; in != b.cold {
		b.cold = in
		if in {
			d.cold.add(base)
		} else {
			d.cold.remove(base)
		}
	}
	if near && due > w && !b.due {
		b.due = true
		d.wheel[due%dueSlots] = append(d.wheel[due%dueSlots], base)
	}
}

// wake runs one policy pass: bring the records whose heat changed up
// to date, demote the coldest near-resident objects while near memory
// is over budget, then haul back any far-resident object that turned
// decisively hot. Guest traps are masked for the duration — the daemon
// models an agent outside the program, and its migrations must not
// invoke guest trap code.
//
// A wake costs what changed since the previous one, not the live heap:
// it updates the records of the blocks the heat map logged and of the
// blocks born since, and walks its candidates from the demotion set
// and the promotion watch list, which those updates keep current. The
// decisions are those of re-scoring every live block: the ranking
// state of a block whose heat did not change follows in closed form,
// and victims and promotions are taken in total orders — base order
// (every victim scores 0) and (score descending, base).
func (d *Daemon) wake() {
	if d.cfg.OneShot && d.fired {
		return
	}
	first := !d.fired
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
	w := d.stats.Wakes
	// The daemon runs on the guest's hart as part of the machine's own
	// execution, so its migrations take the machine's context: the
	// barrier and span table of the chain below, and the machine-global
	// injector, read once per wake.
	ctx := opt.MachineContext(d.Machine)

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

	// Score blocks by their access delta since the last wake (a OneShot
	// pass sees lifetime totals — all it can know): those born since,
	// which get their records now, and those whose heat profile
	// changed. The first wake (a OneShot pass is one) meets every block
	// the allocator already held, and the wake after a heat epoch,
	// which halved every counter, updates every record.
	d.remorse = 0
	adopt := func(base mem.Addr, _ uint64) {
		if d.blocks.Ref(uint64(base)) == nil {
			d.blocks.Put(uint64(base), block{fresh: true, at: w - 1})
		}
	}
	if first {
		d.al.EachLive(adopt)
	}
	for _, base := range d.born {
		if d.al.Live(base) {
			adopt(base, 0)
		}
	}
	d.heat.Drain(d.changed)
	for _, base := range d.born {
		if b := d.blocks.Ref(uint64(base)); b != nil && b.at < w {
			d.update(base, b)
		}
	}
	d.born = reuse(d.born)
	if first || d.heat.Epochs() != d.epochs {
		d.blocks.Each(func(k uint64, _ block) {
			if b := d.blocks.Ref(k); b.at < w {
				d.update(mem.Addr(k), b)
			}
		})
	}
	d.epochs = d.heat.Epochs()
	// The wheel slot holds this wake's entries; one for a base freed and
	// reused since finds the newcomer, whose re-settling is harmless.
	due := &d.wheel[w%dueSlots]
	for _, base := range *due {
		if b := d.blocks.Ref(uint64(base)); b != nil && b.due {
			b.due = false
			d.settle(base, b)
		}
	}
	*due = reuse(*due)

	// Self-tuning patience: while demotion mistakes keep surfacing,
	// back off aggressively (the workload's re-touch cycle is longer
	// than the current bar); when they stop, relax one wake at a time
	// toward the configured floor.
	if d.remorse > 0 {
		d.stats.Remorse += uint64(d.remorse)
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
	// cannot do once its moment has passed. A heat-map-untracked block
	// is unknown, not cold — an evicted-but-hot block demoted on absence
	// of evidence would pay a chain walk on every later access — so the
	// demotion set holds tracked blocks only.
	target := budget - uint64(float64(budget)*headroom)
	if d.nearLive() > target && demoting {
		moves := 0
		d.demoted = d.demoted[:0]
		d.cold.walk(func(base mem.Addr) bool {
			b := d.blocks.Ref(uint64(base))
			if _, idle := b.ranked(w); idle < d.patience || b.moved >= maxObjectMoves {
				return true
			}
			size, ok := d.movable(base)
			if !ok {
				return true
			}
			if d.nearLive() <= target || moves >= maxMoves {
				return false
			}
			if !d.migrate(ctx, base, size, d.tiers.Slowest()) {
				return false // window exhausted; no point trying further victims
			}
			d.demoted = append(d.demoted, base)
			moves++
			return true
		})
		for _, base := range d.demoted {
			d.settle(base, d.blocks.Ref(uint64(base)))
		}
	}

	// Promote: a far-resident object hot enough to clear PromoteMin
	// since the last wake earns near-latency space from tier 0's
	// window — if the budget has room for it.
	promos, hot := d.promos[:0], d.hot[:0]
	for _, base := range d.hot {
		b := d.blocks.Ref(uint64(base))
		score, _ := b.ranked(w)
		if !b.far() || score < d.cfg.PromoteMin {
			b.hot = false
			continue
		}
		hot = append(hot, base)
		if b.moved >= maxObjectMoves {
			continue
		}
		if size, ok := d.movable(base); ok {
			promos = append(promos, candidate{base, score, size})
		}
	}
	d.promos, d.hot = promos, hot
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
		d.settle(p.base, d.blocks.Ref(uint64(p.base)))
		moves++
	}
}

func roundUp(n uint64) uint64 { return (n + mem.WordSize - 1) &^ uint64(mem.WordSize-1) }

// burstCap bounds the capacity a per-wake buffer keeps: one a burst
// grew past it (the guest's setup before the first wake) is dropped,
// so its high-water mark does not stay allocated for the whole run.
const burstCap = 4096

// reuse empties s for the next wake.
func reuse(s []mem.Addr) []mem.Addr {
	if cap(s) > burstCap {
		return nil
	}
	return s[:0]
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
	b := d.blocks.Ref(uint64(base))
	if b.bytes > 0 {
		d.tiers.Release(int(b.tier), b.bytes)
		if b.tier > 0 {
			d.farBytes -= b.bytes
		}
	}
	b.tier, b.bytes = uint8(tier), roundUp(size)
	if tier > 0 {
		d.farBytes += b.bytes
	}
	b.moved++
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
// The record goes before the tick, so a wake there already treats the
// block as dead; the allocator's Track hook drops the records of the
// chain blocks the machine's Free releases, and of untimed frees, the
// same way.
func (d *Daemon) Free(a mem.Addr) {
	d.drop(a)
	d.tick()
	d.Machine.Free(a)
	if d.ownHeat {
		d.heat.OnFree(uint64(a))
	}
}
