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
//     /step, wrapped in the agents the session asks for (memfwd.Stack).
//
// Either mode can be snapshotted at any operation boundary and
// migrated between shards at any time.
type Session struct {
	ID    string
	Mode  string // "raw" or an application name
	Chaos bool
	Tiers int // latency tiers of the session's machine (0 = untiered)
	Harts int // harts of the session's machine (0 = single-hart)

	shard atomic.Int32

	// rawOps counts raw-mode guest operations. It advances under mu,
	// but the session-info replies read it without the lock.
	rawOps atomic.Uint64

	hub *obs.Broadcaster
	tr  *obs.Tracer

	// mu serializes raw-mode guest operations and all control-plane
	// work (digest, snapshot, migrate, close) on both modes. The
	// app-mode /step path deliberately does not take it: stepping can
	// block for a long time and synchronizes through the gate alone.
	mu        sync.Mutex
	m         *sim.Machine // the session's machine for life; app mode's runner reaches it via px
	closed    bool
	arenaNext mem.Addr // raw-mode relocation cursor within the shard region
	arenaOff  mem.Addr // cursor offset, preserved across migrations

	// Durability (nil when the server has no store, or after a storage
	// failure dropped this session to memory-only). Guarded by mu; the
	// create request rides along so checkpoints and app-mode recovery
	// can rewrite the session's recipe.
	log     *sessLog
	reqJSON []byte

	// App mode: the runner drives the agent stack, which wraps the
	// step-gate proxy over m.
	g          *gate
	px         *proxy
	stk        *memfwd.Stack
	runnerDone chan struct{}
	res        app.Result
	runErr     error
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
	// machine's sim.Config (so it travels with snapshots), and app
	// sessions additionally get the migrator daemon. Raw sessions get
	// geometry only — the daemon is an app.Machine interceptor and raw
	// ops drive the machine directly.
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
	s, _ := newRawSession(id, shard, cfg, nil, 0, 0) // a fresh machine loads nothing, so cannot fail
	if req.Mode == "" || req.Mode == "raw" {
		return s, nil
	}

	a, ok := memfwd.AppByName(req.Mode)
	if !ok {
		return nil, fmt.Errorf("unknown mode %q (want \"raw\" or an application name)", req.Mode)
	}
	s.Mode = a.Name
	s.Chaos = req.Chaos
	s.g = newGate()
	s.px = newProxy(s.g, s.m)
	var chaosSeed int64
	if req.Chaos {
		chaosSeed = req.ChaosSeed
		if chaosSeed == 0 {
			chaosSeed = 1
		}
	}
	stk, err := memfwd.NewStack(s.m, s.px,
		sched.Config{Harts: req.Harts, Seed: req.SchedSeed, Interval: req.SchedInterval},
		tier.Config{Tiers: tc, Seed: req.Seed, Every: req.MigrateEvery, FastFrac: req.FastFrac, OneShot: req.TierStatic},
		chaosSeed, req.ChaosInterval)
	if err != nil {
		return nil, err
	}
	s.stk = stk
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
		// The stack commits in-flight relocations, so the final state
		// (and any digest a client reads) reflects whole relocations only.
		s.res = stk.Run(a, appCfg)
		s.m.Finalize()
	}()
	return s, nil
}

// newRawSession makes a raw session on shard over a machine of cfg,
// loaded from st when st is non-nil, that has run ops guest operations
// and used arenaOff bytes of its relocation arena: the one constructor
// under create, restore and recovery, and the one place a session's
// machine is built. The session keeps that machine for life and
// reports the tiers and harts of its config.
func newRawSession(id string, shard int, cfg sim.Config, st *sim.MachineState, ops uint64, arenaOff mem.Addr) (*Session, error) {
	s := &Session{ID: id, Mode: "raw", hub: obs.NewBroadcaster()}
	if cfg.Tiers != nil {
		s.Tiers = len(cfg.Tiers.Latencies)
	}
	if cfg.Harts > 1 {
		s.Harts = cfg.Harts
	}
	s.shard.Store(int32(shard))
	s.tr = obs.NewTracer(obs.NoClose(s.hub), 32)
	s.m = sim.New(cfg)
	if st != nil {
		if err := s.m.LoadState(st); err != nil {
			return nil, err
		}
	}
	s.m.SetTracer(s.tr)
	s.rawOps.Store(ops)
	s.arenaOff = arenaOff
	s.arenaNext = shardArenaBase(shard) + arenaOff
	return s, nil
}

// withMachine runs fn with exclusive ownership of the session's
// machine, quiescing the runner at an operation boundary for app
// sessions. fn must not retain the machine.
func (s *Session) withMachine(fn func(m *sim.Machine) error) error {
	if s.g != nil {
		s.g.pause()
		defer s.g.resume()
		s.stk.Quiesce()
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

// tierState reads the migrator's accounting. The daemon shares the
// runner's synchronization domain, so callers own the machine
// (withMachine). Returns nil for untiered and raw sessions.
func (s *Session) tierState() *tierView {
	if s.stk == nil || s.stk.Daemon == nil {
		return nil
	}
	d := s.stk.Daemon
	return &tierView{Stats: d.Stats(), NearBytes: d.NearLive(), FarBytes: d.FarLive()}
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

// migrate re-homes the session on shard `to`. Every shard lives in
// this process, so the machine stays where it is: the session takes the
// new shard, and the raw relocation cursor re-bases into that shard's
// arena region at its current offset, so relocation targets never
// repeat. Neither write touches machine state, so an app session's
// runner and relocator harts keep running. Callers hold s.mu.
func (s *Session) migrate(to int) {
	s.shard.Store(int32(to))
	s.arenaNext = shardArenaBase(to) + s.arenaOff
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
