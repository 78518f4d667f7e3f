package tier

import (
	"testing"

	"memfwd/internal/apps/app"
	"memfwd/internal/apps/health"
	"memfwd/internal/apps/mst"
	"memfwd/internal/core"
	"memfwd/internal/fault"
	"memfwd/internal/mem"
	"memfwd/internal/obs"
	"memfwd/internal/opt"
	"memfwd/internal/oracle"
	"memfwd/internal/sim"
)

// tieredSim builds a 2-tier sim machine and a daemon over it sharing
// the same TierConfig, with a deliberately short wake interval so small
// tests reach the policy loop.
func tieredSim(t *testing.T, dcfg Config) (*Daemon, *sim.Machine) {
	t.Helper()
	tc := mem.DefaultTierConfig(2, 70)
	m := sim.New(sim.Config{Tiers: tc})
	dcfg.Tiers = tc
	return New(m, dcfg), m
}

// hammer issues n loads over the first words of base through the
// wrapped machine, making the object hot and advancing the daemon's
// operation clock.
func hammer(d *Daemon, base mem.Addr, words, n int) {
	for i := 0; i < n; i++ {
		d.LoadWord(base + mem.Addr(i%words)*mem.WordSize)
	}
}

// hammerWithPressure hammers like hammer but also allocates a small
// block every 256 operations. Over budget those allocations spill,
// which is the allocation pressure the demotion policy requires: the
// daemon only demotes when someone is actually asking for near memory.
func hammerWithPressure(d *Daemon, base mem.Addr, words, n int) {
	for i := 0; i < n; i++ {
		d.LoadWord(base + mem.Addr(i%words)*mem.WordSize)
		if i%256 == 0 {
			d.Malloc(64)
		}
	}
}

// TestDaemonDemotesColdObjects: the core adaptive behaviour. When near
// memory is over budget, the daemon demotes the coldest near-resident
// objects into the far window through the production two-phase commit,
// leaves hot data near, and keeps every word readable through the
// forwarding chain.
func TestDaemonDemotesColdObjects(t *testing.T) {
	d, m := tieredSim(t, Config{Seed: 1, Every: 128, MinBudget: 40960, MaxObjectBytes: 8192})

	// Eight cold 4KB blocks, one hot 256B block, and one 24KB block the
	// daemon may neither spill nor demote (over MaxObjectBytes) — the
	// oversize block is what pushes near residency over the 40KB budget.
	var colds []mem.Addr
	for i := 0; i < 8; i++ {
		c := d.Malloc(4096)
		d.StoreWord(c, uint64(1000+i))
		colds = append(colds, c)
	}
	hot := d.Malloc(256)
	for i := 0; i < 32; i++ {
		d.StoreWord(hot+mem.Addr(i)*8, uint64(100+i))
	}
	big := d.Malloc(24576)
	hammerWithPressure(d, hot, 32, 8192)

	st := d.Stats()
	if st.Wakes == 0 {
		t.Fatal("daemon never woke")
	}
	if st.Demotions == 0 {
		t.Fatalf("over-budget near memory never demoted: %+v", st)
	}
	slow := d.Tiers().Slowest()
	demoted := 0
	for _, c := range colds {
		if d.Tiers().TierOf(m.FinalAddr(c)) == slow {
			demoted++
		}
	}
	if demoted != int(st.Demotions) {
		t.Fatalf("%d cold blocks far-resident, stats say %d demotions", demoted, st.Demotions)
	}
	// The victims are the coldest: the hot block and the oversize block
	// must still be near.
	if tf := d.Tiers().TierOf(m.FinalAddr(hot)); tf != 0 {
		t.Fatalf("hot object demoted to tier %d", tf)
	}
	if tf := d.Tiers().TierOf(m.FinalAddr(big)); tf != 0 {
		t.Fatalf("oversize object moved to tier %d despite MaxObjectBytes", tf)
	}
	// Near residency converged under budget.
	if nl, b := d.NearLive(), uint64(40960); nl > b {
		t.Fatalf("near residency %d still over budget %d after %d demotions", nl, b, st.Demotions)
	}
	for i, c := range colds {
		if got := d.LoadWord(c); got != uint64(1000+i) {
			t.Fatalf("cold[%d] = %d after demotion, want %d", i, got, 1000+i)
		}
	}
	for i := 0; i < 32; i++ {
		if got := d.LoadWord(hot + mem.Addr(i)*8); got != uint64(100+i) {
			t.Fatalf("hot[%d] = %d, want %d", i, got, 100+i)
		}
	}
	if d.Tiers().BytesLive(slow) == 0 {
		t.Fatal("far tier accounts no live bytes after demotion")
	}
	// Accesses to demoted data are attributed to the far tier once the
	// daemon keeps walking them.
	hammer(d, colds[0], 8, 256)
	if st = d.Stats(); st.Accesses[slow] == 0 {
		t.Fatalf("no far-tier access attribution: %+v", st.Accesses)
	}
	// Freeing a demoted block releases its far residency.
	before := d.Tiers().BytesLive(slow)
	d.Free(colds[0])
	if got := d.Tiers().BytesLive(slow); got != before-4096 {
		t.Fatalf("far bytes after freeing a demoted block = %d, want %d", got, before-4096)
	}
	if err := oracle.CheckMachine(m); err != nil {
		t.Fatalf("machine invariants after demotion: %v", err)
	}
}

// TestDaemonSpillsDirectPlacement: when near memory is over budget, new
// timed allocations are placed straight into the far window — a direct
// far address with no forwarding chain — while untimed allocator calls
// (experiment scaffolding) always stay on the heap.
func TestDaemonSpillsDirectPlacement(t *testing.T) {
	d, m := tieredSim(t, Config{Seed: 2, Every: 1 << 30, MinBudget: 8})

	a := d.Malloc(64)
	slow := d.Tiers().Slowest()
	if tf := d.Tiers().TierOf(a); tf != slow {
		t.Fatalf("over-budget alloc placed in tier %d, want far tier %d (addr %#x)", tf, slow, a)
	}
	if m.ReadFBit(a) || m.FinalAddr(a) != a {
		t.Fatal("spilled block grew a forwarding chain; placement must be direct")
	}
	d.StoreWord(a, 77)
	if got := d.LoadWord(a); got != 77 {
		t.Fatalf("spilled word = %d, want 77", got)
	}
	st := d.Stats()
	if st.Spills != 1 || st.SpilledBytes != 64 {
		t.Fatalf("spill accounting: %+v", st)
	}
	// 64 data bytes plus the same header pad a heap block carries:
	// spilling must not densify the layout.
	const spillTake = 64 + 16
	if d.FarLive() != spillTake || d.Tiers().BytesLive(slow) != spillTake {
		t.Fatalf("far residency %d / window %d, want %d/%d",
			d.FarLive(), d.Tiers().BytesLive(slow), spillTake, spillTake)
	}

	// A second spill advances the window cursor: no address reuse ever.
	b := d.Malloc(64)
	if b == a || d.Tiers().TierOf(b) != slow {
		t.Fatalf("second spill at %#x (first %#x)", b, a)
	}

	// Untimed allocation (heap aging, arena carving) bypasses placement.
	u := m.Alloc.Alloc(64)
	if !m.Alloc.Contains(u) {
		t.Fatalf("untimed alloc left the heap: %#x", u)
	}

	// Free releases residency and never recycles window space.
	d.Free(a)
	if d.FarLive() != spillTake || d.Tiers().BytesLive(slow) != spillTake {
		t.Fatalf("far residency after free = %d/%d, want %d/%d (only b lives)",
			d.FarLive(), d.Tiers().BytesLive(slow), spillTake, spillTake)
	}
	c := d.Malloc(64)
	if c == a {
		t.Fatal("freed window address recycled")
	}
	if err := oracle.CheckMachine(m); err != nil {
		t.Fatalf("machine invariants: %v", err)
	}
}

// TestDaemonPromotesHotSpilledObject: a far-resident object that turns
// decisively hot (clears PromoteMin) earns near-latency space from tier
// 0's window — once the near budget has room for it. Until then the
// daemon counts the refusal.
func TestDaemonPromotesHotSpilledObject(t *testing.T) {
	// MaxObjectBytes keeps the filler immovable: the daemon may neither
	// demote it for headroom nor spill it, so the near budget stays
	// genuinely full until the guest frees it.
	// PromoteMin is sized against per-wake deltas: with Every=128 a wake
	// sees at most ~128 accesses, so a threshold of 64 means "absorbed
	// at least half of the recent traffic".
	d, m := tieredSim(t, Config{Seed: 3, Every: 128, MinBudget: 4096, PromoteMin: 64, MaxObjectBytes: 2048})

	filler := d.Malloc(4096) // fills the near budget exactly
	hot := d.Malloc(256)     // over budget: spilled far
	coldSpill := d.Malloc(256)
	slow := d.Tiers().Slowest()
	if d.Tiers().TierOf(hot) != slow || d.Tiers().TierOf(coldSpill) != slow {
		t.Fatalf("setup: spills went to tiers %d/%d", d.Tiers().TierOf(hot), d.Tiers().TierOf(coldSpill))
	}
	for i := 0; i < 32; i++ {
		d.StoreWord(hot+mem.Addr(i)*8, uint64(100+i))
	}
	hammer(d, hot, 32, 4096)
	if st := d.Stats(); st.Promotions != 0 {
		t.Fatalf("promotion happened with a full near budget: %+v", st)
	} else if st.SkippedBudget == 0 {
		t.Fatalf("budget-blocked promotion not counted: %+v", st)
	}

	// Phase change: the filler dies, the budget has room, the hot
	// spilled object comes near. The cold spill stays far.
	d.Free(filler)
	hammer(d, hot, 32, 2048)
	st := d.Stats()
	if st.Promotions == 0 {
		t.Fatalf("hot far-resident object never promoted: %+v", st)
	}
	if tf := d.Tiers().TierOf(m.FinalAddr(hot)); tf != 0 {
		t.Fatalf("promoted object's data resides in tier %d, want 0 (final %#x)", tf, m.FinalAddr(hot))
	}
	if tf := d.Tiers().TierOf(m.FinalAddr(coldSpill)); tf != slow {
		t.Fatalf("cold spill moved to tier %d without clearing PromoteMin", tf)
	}
	for i := 0; i < 32; i++ {
		if got := d.LoadWord(hot + mem.Addr(i)*8); got != uint64(100+i) {
			t.Fatalf("hot[%d] = %d after promotion, want %d", i, got, 100+i)
		}
	}
	if d.Tiers().BytesLive(0) == 0 {
		t.Fatal("tier 0 window accounts no live bytes after promotion")
	}
	if st.Accesses == nil || st.HitRate(0) == 0 {
		t.Fatalf("no near-tier access attribution: %+v", st.Accesses)
	}
	if err := oracle.CheckMachine(m); err != nil {
		t.Fatalf("machine invariants after promotion: %v", err)
	}
}

// TestDaemonOneShot: OneShot turns the daemon into the paper-style
// static optimizer — exactly one policy pass, then silence. The spill
// placement hook stays live (near capacity is physics, not policy), so
// later over-budget allocations still go far; what static placement
// loses is the re-deciding.
func TestDaemonOneShot(t *testing.T) {
	d, _ := tieredSim(t, Config{Seed: 4, Every: 64, MinBudget: 8, OneShot: true})
	a := d.Malloc(128)
	hammer(d, a, 16, 8192)
	if w := d.Stats().Wakes; w != 1 {
		t.Fatalf("one-shot daemon woke %d times, want 1", w)
	}
	b := d.Malloc(64)
	if d.Tiers().TierOf(b) != d.Tiers().Slowest() {
		t.Fatal("spill placement died with the one-shot pass")
	}
	if d.Stats().Spills == 0 {
		t.Fatalf("no spills counted: %+v", d.Stats())
	}
}

// TestDaemonTrapChaining: with a private heat map the daemon holds the
// machine's trap slot, but the guest's handler must still fire (chained
// through the tap) and the daemon's heat map must still see the trap.
func TestDaemonTrapChaining(t *testing.T) {
	tc := mem.DefaultTierConfig(2, 70)
	m := sim.New(sim.Config{Tiers: tc})
	d := New(m, Config{Tiers: tc, Seed: 5, Every: 1 << 30, MinBudget: 1 << 30}) // never wakes, never spills
	src := d.Malloc(64)
	tgt := mem.Addr(uint64(src) + 1<<20)
	d.StoreWord(src, 7)
	if err := opt.TryRelocate(m, src, tgt, 64/mem.WordSize); err != nil {
		t.Fatalf("TryRelocate: %v", err)
	}
	fired := 0
	d.SetTrap(func(ev core.Event) {
		fired++
		if ev.Initial != src {
			t.Fatalf("trap event initial %#x, want %#x", ev.Initial, src)
		}
	})
	if got := d.LoadWord(src); got != 7 {
		t.Fatalf("forwarded load = %d, want 7", got)
	}
	if fired != 1 {
		t.Fatalf("guest trap fired %d times through the tap, want 1", fired)
	}
	if o, ok := d.Heat().Get(uint64(src)); !ok || o.Traps == 0 {
		t.Fatalf("trap not attributed in the daemon's heat map: %+v ok=%v", o, ok)
	}
}

// daemonTestConfig is the policy configuration the cross-machine
// harness tests share: budget small enough that real applications
// exercise spills and demotions.
func daemonTestConfig(tc *mem.TierConfig, seed int64) Config {
	return Config{Tiers: tc, Seed: seed, Every: 512, FastFrac: 0.25, MinBudget: 8 << 10}
}

// TestDaemonDifferential runs real applications on two machine
// implementations — the timed simulator and the untimed oracle — each
// wrapped in an identically-configured daemon, and demands identical
// guest results, identical heap digests, and identical daemon
// decisions. The guest results must also match an undisturbed oracle
// baseline: placement changes where data lives, never what the program
// computes. (Heap digests against the baseline are not compared: spill
// placement legitimately births blocks at far addresses, and the
// modulo-forwarding digest is address-keyed by design.)
func TestDaemonDifferential(t *testing.T) {
	apps := []app.App{mst.App, health.App}
	for _, a := range apps {
		t.Run(a.Name, func(t *testing.T) {
			cfg := app.Config{Seed: 11, Scale: 1}
			tc := mem.DefaultTierConfig(2, 70)
			simCfg := sim.Config{LineSize: 128, Tiers: tc}
			eff := sim.New(simCfg).Config()
			ocfg := oracle.Config{LineSize: eff.LineSize, HeapBase: eff.HeapBase, HeapLimit: eff.HeapLimit}

			base := oracle.New(ocfg)
			baseRes := a.Run(base, cfg)

			sm := sim.New(simCfg)
			sd := New(sm, daemonTestConfig(tc, 42))
			simRes := a.Run(sd, cfg)
			sm.Finalize()

			om := oracle.New(ocfg)
			od := New(om, daemonTestConfig(tc, 42))
			oRes := a.Run(od, cfg)

			if simRes != baseRes {
				t.Fatalf("sim+daemon diverged from undisturbed baseline: %+v, want %+v", simRes, baseRes)
			}
			if oRes != baseRes {
				t.Fatalf("oracle+daemon diverged from undisturbed baseline: %+v, want %+v", oRes, baseRes)
			}
			simDig, err := oracle.DigestModuloForwarding(sm.Mem, sm.Fwd, sm.Alloc)
			if err != nil {
				t.Fatalf("sim+daemon digest: %v", err)
			}
			oDig, err := oracle.DigestModuloForwarding(om.Mem, om.Fwd, om.Alloc)
			if err != nil {
				t.Fatalf("oracle+daemon digest: %v", err)
			}
			if simDig != oDig {
				t.Fatalf("digests diverged across machines: sim %#x oracle %#x", simDig, oDig)
			}
			if err := oracle.CheckMachine(sm); err != nil {
				t.Fatalf("sim invariants: %v", err)
			}
			if err := oracle.CheckForwarding(om.Mem, om.Fwd); err != nil {
				t.Fatalf("oracle invariants: %v", err)
			}
			ss, os := sd.Stats(), od.Stats()
			if ss.Demotions+ss.Spills == 0 {
				t.Fatalf("daemon idle on %s — differential run exercised nothing: %+v", a.Name, ss)
			}
			// Identical op streams, seeds, and heat feeds: the two
			// daemons must have made identical decisions.
			if ss.Demotions != os.Demotions || ss.Spills != os.Spills ||
				ss.Promotions != os.Promotions || ss.Wakes != os.Wakes {
				t.Fatalf("daemon nondeterminism across machines: sim %+v vs oracle %+v", ss, os)
			}
		})
	}
}

// TestDaemonUnderChaos stacks the chaos adversary ON TOP of the daemon
// (chaos actions and daemon migrations interleave on the same heap)
// and demands bit-identical guest results against an undisturbed
// oracle baseline — the adversarial restatement of the safety claim
// with the migrator enabled. Note the daemon's *decisions* are allowed
// to differ under chaos: chaos relocations raise forwarding traps,
// trap attribution feeds the heat ranking, so victim order (and with
// it spill addresses, hence the address-keyed digest) legitimately
// shifts. What may never shift is what the program computes.
func TestDaemonUnderChaos(t *testing.T) {
	a := mst.App
	cfg := app.Config{Seed: 13, Scale: 1}
	tc := mem.DefaultTierConfig(2, 70)
	eff := sim.New(sim.Config{}).Config()
	ocfg := oracle.Config{LineSize: eff.LineSize, HeapBase: eff.HeapBase, HeapLimit: eff.HeapLimit}

	base := oracle.New(ocfg)
	baseRes := a.Run(base, cfg)

	om := oracle.New(ocfg)
	d := New(om, daemonTestConfig(tc, 17))
	rel := oracle.NewRelocator(d, 99, 64)
	rel.EnableFaults(nil)
	chaosRes := a.Run(rel, cfg)

	if chaosRes != baseRes {
		t.Fatalf("chaos+daemon diverged: %+v, want %+v", chaosRes, baseRes)
	}
	if err := oracle.CheckForwarding(om.Mem, om.Fwd); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if rel.Relocations == 0 {
		t.Fatal("chaos adversary idle — episode exercised nothing")
	}
	if ds := d.Stats(); ds.Demotions+ds.Spills == 0 {
		t.Fatalf("daemon idle under chaos: %+v", ds)
	}
}

// TestDaemonFaultedMigrationRollsForward arms a machine-level fault
// injector so a crash fires INSIDE a daemon demotion (after the copy
// phase). The daemon must recover the crash, roll the torn move
// forward from its journal, count it Repaired, and leave every word of
// the object readable — crash consistency inherited by online tiering.
func TestDaemonFaultedMigrationRollsForward(t *testing.T) {
	d, m := tieredSim(t, Config{Seed: 21, Every: 128, MinBudget: 40960, MaxObjectBytes: 8192})
	inj := fault.New(77).Arm(fault.Crash, fault.RelocateCopied, 1)
	m.SetFaultInjector(inj)

	cold := d.Malloc(4096)
	for i := 0; i < 16; i++ {
		d.StoreWord(cold+mem.Addr(i)*8, uint64(40+i))
	}
	big := d.Malloc(40960) // oversize: pushes near memory over budget
	_ = big
	hot := d.Malloc(256)
	hammerWithPressure(d, hot, 32, 8192)

	st := d.Stats()
	if !inj.Fired() {
		t.Fatal("armed fault never fired — migration path not exercised")
	}
	if st.Repaired == 0 {
		t.Fatalf("crashed migration not rolled forward: %+v", st)
	}
	if st.Demotions == 0 {
		t.Fatalf("repaired migration not counted as a demotion: %+v", st)
	}
	for i := 0; i < 16; i++ {
		if got := d.LoadWord(cold + mem.Addr(i)*8); got != uint64(40+i) {
			t.Fatalf("word %d = %d after repaired migration, want %d", i, got, 40+i)
		}
	}
	if tf := d.Tiers().TierOf(m.FinalAddr(cold)); tf != d.Tiers().Slowest() {
		t.Fatalf("rolled-forward object resides in tier %d, want %d", tf, d.Tiers().Slowest())
	}
	if err := oracle.CheckMachine(m); err != nil {
		t.Fatalf("invariants after roll-forward: %v", err)
	}
}

// TestDaemonSharedHeatMap: when the machine's own heat map is shared
// in, the daemon consumes it (full trap/hop attribution) instead of
// building a private one, and its demotion ranking runs off the
// machine's attribution.
func TestDaemonSharedHeatMap(t *testing.T) {
	tc := mem.DefaultTierConfig(2, 70)
	m := sim.New(sim.Config{Tiers: tc})
	h := obs.NewHeatMap(256, 0)
	m.SetHeatMap(h)
	d := New(m, Config{Tiers: tc, Seed: 6, Every: 128, MinBudget: 40960, MaxObjectBytes: 8192, Heat: h})
	if d.Heat() != h {
		t.Fatal("daemon did not adopt the shared heat map")
	}
	cold := d.Malloc(4096)
	d.StoreWord(cold, 9)
	hot := d.Malloc(256)
	for i := 0; i < 32; i++ {
		d.StoreWord(hot+mem.Addr(i)*8, uint64(i))
	}
	big := d.Malloc(36864) // oversize: heap-resident, pushes near memory over budget
	_ = big
	hammerWithPressure(d, hot, 32, 8192)
	st := d.Stats()
	if st.Demotions == 0 {
		t.Fatalf("no demotion from shared heat: %+v", st)
	}
	if tf := d.Tiers().TierOf(m.FinalAddr(cold)); tf != d.Tiers().Slowest() {
		t.Fatalf("cold object in tier %d, want far", tf)
	}
	if tf := d.Tiers().TierOf(m.FinalAddr(hot)); tf != 0 {
		t.Fatal("hot object demoted despite shared heat ranking")
	}
	if got := d.LoadWord(cold); got != 9 {
		t.Fatalf("data corrupted: %d", got)
	}
	if got := d.LoadWord(hot + 8); got != 1 {
		t.Fatalf("data corrupted: %d", got)
	}
}

// TestDaemonKeepsGuestSpans: with the daemon wrapped around a
// span-recording machine, the span table records every committed
// relocation — the guest's opt-pass moves, which reach TryRelocate
// through the daemon, as well as the daemon's own migrations. A wrapper
// that hides the machine's span table from TryRelocate loses the
// guest's spans and keeps only its own.
func TestDaemonKeepsGuestSpans(t *testing.T) {
	tc := mem.DefaultTierConfig(2, 70)
	m := sim.New(sim.Config{Tiers: tc})
	spans := obs.NewSpanTable(0)
	m.SetSpans(spans)
	h := obs.NewHeatMap(1<<16, 0)
	m.SetHeatMap(h)
	d := New(m, Config{Tiers: tc, Seed: 1, Heat: h})
	res := health.App.Run(d, app.Config{Opt: true, Seed: 1})

	st := d.Stats()
	if res.Relocated == 0 || st.Demotions == 0 {
		t.Fatalf("run exercised too little: %d guest relocations, %d demotions", res.Relocated, st.Demotions)
	}
	committed, _, _ := spans.Outcomes()
	if want := uint64(res.Relocated) + st.Demotions + st.Promotions; committed != want {
		t.Fatalf("%d committed spans, want %d = %d guest relocations + %d demotions + %d promotions",
			committed, want, res.Relocated, st.Demotions, st.Promotions)
	}
}

// TestDaemonConfigValidation: a nil tier spec is a programming error.
func TestDaemonConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with nil Tiers did not panic")
		}
	}()
	New(sim.New(sim.Config{}), Config{})
}
