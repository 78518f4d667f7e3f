package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"memfwd"
	"memfwd/internal/agent"
	"memfwd/internal/apps/app"
	"memfwd/internal/mem"
	"memfwd/internal/obs"
	"memfwd/internal/oracle"
	"memfwd/internal/sched"
	"memfwd/internal/sim"
	"memfwd/internal/tier"
)

// arenaRegionBytes is the relocation-target address space one shard
// region spans. Regions are keyed by shard id and sit far above any
// heap geometry the simulator configures (heaps end around 0x5000_0000
// with defaults), so a session's relocation targets always encode the
// shard that performed the relocation — and cross-shard migration
// visibly changes where new copies land while DigestModuloForwarding,
// which never looks at target addresses, stays invariant.
const arenaRegionBytes = 0x4_0000_0000

// shardArenaBase returns the relocation-arena base address for a shard.
func shardArenaBase(shard int) mem.Addr {
	return mem.Addr(arenaRegionBytes) * mem.Addr(shard+1)
}

// Session is one simulated machine owned by the server, in one of two
// modes:
//
//   - raw: the client is the guest program, driving individual
//     malloc/free/load/store/relocate operations through /op;
//   - app: a registered benchmark application runs on a dedicated
//     runner goroutine, advanced in guest-operation quanta through
//     /step, optionally wrapped in the chaos Relocator adversary.
//
// Either mode can be suspended, snapshotted, and migrated between
// shards at any operation boundary.
type Session struct {
	ID    string
	Mode  string // "raw" or an application name
	Chaos bool
	Tiers int // latency tiers the session's machine was built with (0 = untiered)
	Harts int // harts the session's machine was built with (0 or 1 = single-hart)

	shard atomic.Int32

	// rawOps counts raw-mode guest operations. It advances under mu,
	// but the session-info replies read it without the lock.
	rawOps atomic.Uint64

	cfg sim.Config
	hub *obs.Broadcaster
	tr  *obs.Tracer

	// mu serializes raw-mode guest operations and all control-plane
	// work (digest, snapshot, migrate, close) on both modes. The
	// app-mode /step path deliberately does not take it: stepping can
	// block for a long time and synchronizes through the gate alone.
	mu        sync.Mutex
	m         *sim.Machine // raw mode; app mode reaches it via px
	closed    bool
	arenaNext mem.Addr // raw-mode relocation cursor within the shard region
	arenaOff  mem.Addr // cursor offset, preserved across migrations

	// Durability (nil when the server has no store, or after a storage
	// failure dropped this session to memory-only). Guarded by mu; the
	// create request rides along so checkpoints and app-mode recovery
	// can rewrite the session's recipe.
	log     *sessLog
	reqJSON []byte

	// App mode.
	g          *gate
	px         *proxy
	rel        *oracle.Relocator
	runnerDone chan struct{}
	res        app.Result
	runErr     error

	// Multi-hart (app mode with Harts >= 2): the scheduling group
	// driving relocator harts against the guest's operations. Host
	// state, like the tier daemon: it delegates through the proxy, so it
	// survives live migration unchanged (the proxy forwards SetHart to
	// whichever machine is current).
	grp *sched.Group

	// Tiering (app mode with Tiers >= 2): the migrator daemon wrapping
	// the proxy, and the heat map shared between machine and daemon.
	// Both are host state — they survive live migration by reattaching
	// to the swapped-in machine (see migrate).
	td   *tier.Daemon
	heat *obs.HeatMap
}

// newSession builds a session on the given shard. For app mode, name
// must be a registered application; the runner goroutine starts parked
// (zero budget) and advances only under /step grants.
func newSession(id string, shard int, cfg sim.Config, req createRequest) (*Session, error) {
	// Agent intervals are client input bounded by agent.MaxEvery, and
	// checked before any wrapper — or hart goroutine — exists.
	for _, f := range []struct {
		name string
		v    int
	}{{"chaosInterval", req.ChaosInterval}, {"migrateEvery", req.MigrateEvery}, {"schedInterval", req.SchedInterval}} {
		if f.v > agent.MaxEvery {
			return nil, fmt.Errorf("%s must be at most %d (got %d)", f.name, agent.MaxEvery, f.v)
		}
	}
	// Tiering is per-session config: the tier spec goes into the
	// machine's sim.Config (so it travels with snapshots and rebuilds
	// identically on migration), and app sessions additionally get the
	// migrator daemon. Raw sessions get geometry only — the daemon is an
	// app.Machine interceptor and raw ops drive the machine directly.
	var tc *mem.TierConfig
	if req.Tiers != 0 {
		if req.Tiers < 2 {
			return nil, fmt.Errorf("tiers must be at least 2 (got %d)", req.Tiers)
		}
		base := cfg.MemLatency
		if base <= 0 {
			base = sim.DefaultConfig().MemLatency
		}
		tc = mem.DefaultTierConfig(req.Tiers, base)
		cfg.Tiers = tc
	}
	// Hart count is machine geometry like the tier spec: it goes into
	// sim.Config so snapshots rebuild the same machine shape, and app
	// sessions with Harts >= 2 additionally get the scheduling group.
	// Validated here, not at the machine, so a bad request is an HTTP
	// 400 rather than a server panic.
	if req.Harts < 0 {
		return nil, fmt.Errorf("harts must be positive (got %d)", req.Harts)
	}
	if req.Harts > sim.MaxHarts {
		return nil, fmt.Errorf("harts must be at most %d (got %d)", sim.MaxHarts, req.Harts)
	}
	if req.Harts > 1 {
		if req.Mode == "" || req.Mode == "raw" {
			return nil, fmt.Errorf("harts requires an app-mode session (raw sessions have no runner to schedule against)")
		}
		cfg.Harts = req.Harts
	}
	s := &Session{
		ID:    id,
		Mode:  "raw",
		Tiers: req.Tiers,
		Harts: req.Harts,
		cfg:   cfg,
		hub:   obs.NewBroadcaster(),
	}
	s.shard.Store(int32(shard))
	s.arenaNext = shardArenaBase(shard)
	s.tr = obs.NewTracer(obs.NoClose(s.hub), 32)

	m := sim.New(cfg)
	m.SetTracer(s.tr)
	if req.Mode == "" || req.Mode == "raw" {
		s.m = m
		return s, nil
	}

	a, ok := memfwd.AppByName(req.Mode)
	if !ok {
		return nil, fmt.Errorf("unknown mode %q (want \"raw\" or an application name)", req.Mode)
	}
	s.Mode = a.Name
	s.Chaos = req.Chaos
	s.g = newGate()
	s.px = newProxy(s.g, m)
	var gm app.Machine = s.px
	if req.Harts > 1 {
		grp, err := sched.New(s.px, sched.Config{
			Harts:    req.Harts,
			Seed:     req.SchedSeed,
			Interval: req.SchedInterval,
		})
		if err != nil {
			return nil, err
		}
		s.grp = grp
		gm = grp
	}
	if tc != nil {
		h := obs.NewHeatMap(tier.HeatObjects, 0)
		m.SetHeatMap(h)
		s.heat = h
		s.td = tier.New(gm, tier.Config{
			Tiers:    tc,
			Seed:     req.Seed,
			Every:    req.MigrateEvery,
			FastFrac: req.FastFrac,
			OneShot:  req.TierStatic,
			Heat:     h,
		})
		gm = s.td
	}
	if req.Chaos {
		seed := req.ChaosSeed
		if seed == 0 {
			seed = 1
		}
		// The adversary wraps the daemon (when present): its relocations
		// and clock run through the same interception chain the guest
		// uses, so a chaos episode perturbs the migrator's view exactly
		// as an external agent would.
		s.rel = oracle.NewRelocator(gm, seed, req.ChaosInterval)
		gm = s.rel
	}
	appCfg := app.Config{
		Opt:      req.Opt,
		Prefetch: req.Prefetch,
		Seed:     req.Seed,
		Scale:    req.Scale,
	}
	s.runnerDone = make(chan struct{})
	go func() {
		defer close(s.runnerDone)
		defer s.g.finish()
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killed); !ok {
					s.runErr = fmt.Errorf("serve: session %s (%s) panicked: %v", s.ID, s.Mode, r)
				}
			}
		}()
		s.res = a.Run(gm, appCfg)
		if s.grp != nil {
			// Commit in-flight relocations so the final state (and any
			// digest a client reads) reflects whole relocations only.
			s.grp.Quiesce()
		}
		s.px.machine().Finalize()
	}()
	return s, nil
}

// withMachine runs fn with exclusive ownership of the session's
// machine, quiescing the runner at an operation boundary for app
// sessions. fn must not retain the machine.
func (s *Session) withMachine(fn func(m *sim.Machine) error) error {
	if s.g != nil {
		s.g.pause()
		defer s.g.resume()
		if s.grp != nil {
			// In-flight relocation jobs are moves the machine state
			// cannot capture; drive them to completion (which also parks
			// the machine on the guest hart) before fn sees it.
			s.grp.Quiesce()
		}
		return fn(s.px.machine())
	}
	return fn(s.m)
}

// ops returns the guest operations performed so far.
func (s *Session) ops() uint64 {
	if s.g != nil {
		return uint64(s.g.ops())
	}
	return s.rawOps.Load()
}

// tierView is the /stats and /metrics view of a session's migrator.
type tierView struct {
	Stats     tier.Stats `json:"stats"`
	NearBytes uint64     `json:"nearBytes"`
	FarBytes  uint64     `json:"farBytes"`
}

// tierSnapshot reads the migrator's accounting with the machine
// quiesced (the daemon shares the runner's synchronization domain).
// Callers hold s.mu. Returns nil for untiered and raw sessions.
func (s *Session) tierSnapshot() *tierView {
	if s.td == nil {
		return nil
	}
	var v tierView
	s.withMachine(func(m *sim.Machine) error { //nolint:errcheck // fn returns nil
		v = tierView{Stats: s.td.Stats(), NearBytes: s.td.NearLive(), FarBytes: s.td.FarLive()}
		return nil
	})
	return &v
}

// digest computes the heap digest modulo forwarding. Callers hold s.mu.
func (s *Session) digest() (uint64, error) {
	var d uint64
	err := s.withMachine(func(m *sim.Machine) error {
		var err error
		d, err = oracle.DigestModuloForwarding(m.Mem, m.Fwd, m.Alloc)
		return err
	})
	return d, err
}

// save captures the session's machine state. Callers hold s.mu.
func (s *Session) save() *sim.MachineState {
	var st *sim.MachineState
	s.withMachine(func(m *sim.Machine) error { //nolint:errcheck // fn returns nil
		st = m.SaveState()
		return nil
	})
	return st
}

// migrate re-homes the session on shard `to`: the machine state is
// captured, re-instantiated on a fresh machine, and the session's
// observability attachments and relocation cursor move with it (the
// cursor re-bases into the target shard's arena region at its current
// offset, so relocation targets never repeat). Callers hold s.mu.
func (s *Session) migrate(to int) error {
	return s.withMachine(func(m *sim.Machine) error {
		nm := sim.New(s.cfg)
		if err := nm.LoadState(m.SaveState()); err != nil {
			return fmt.Errorf("serve: migrate %s: %w", s.ID, err)
		}
		nm.SetTracer(s.tr)
		if s.heat != nil {
			nm.SetHeatMap(s.heat)
		}
		if s.g != nil {
			s.px.swap(nm)
		} else {
			s.m = nm
		}
		if s.td != nil {
			// The daemon's policy state is host state and persists; the
			// allocator (and its placement hook) is machine state and
			// must be re-cached from the swapped-in machine.
			s.td.Rebind()
		}
		s.shard.Store(int32(to))
		s.arenaNext = shardArenaBase(to) + s.arenaOff
		return nil
	})
}

// close tears the session down: the runner (if any) is unwound, the
// tracer's tail is flushed into the hub, and the hub closes so /events
// streams drain and end. Callers hold s.mu.
func (s *Session) close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.g != nil {
		s.g.kill()
		<-s.runnerDone
	}
	s.tr.Close() //nolint:errcheck // flush into a NoClose hub cannot fail
	s.hub.Close()
	s.log.close() //nolint:errcheck // nil-safe; the fd is all that's left
	s.log = nil
}

// result returns the app run's outcome; valid only once the run is
// done (gate.finished).
func (s *Session) result() (app.Result, error) {
	<-s.runnerDone
	return s.res, s.runErr
}
