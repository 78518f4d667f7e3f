package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"memfwd/internal/mem"
	"memfwd/internal/obs"
	"memfwd/internal/opt"
	"memfwd/internal/oracle"
	"memfwd/internal/report"
	"memfwd/internal/sim"
	"memfwd/internal/telemetry"
)

// Config sizes a Server. Zero fields take defaults.
type Config struct {
	// Shards is the number of worker shards sessions are distributed
	// over (default 4). Each session is owned by exactly one shard at a
	// time; migration re-homes it.
	Shards int

	// Sim configures every session's machine (zero fields take the
	// simulator defaults).
	Sim sim.Config

	// Store persists every session to disk (see store.go); nil serves
	// memory-only. A server recovering a store must be built with the
	// same Shards and Sim configuration that wrote it.
	Store *Store

	// MaxInflight caps concurrently admitted /op and /step requests per
	// shard (default 1024); excess load is shed with 429 + Retry-After
	// rather than queued without bound.
	MaxInflight int

	// QuarantineAfter takes a shard out of new-session placement after
	// this many storage strikes (default 3). Quarantined shards keep
	// serving their existing sessions — degradation, not eviction.
	QuarantineAfter int
}

// shard is one session home: a unit of placement with its own arena
// region (shardArenaBase) and counters. Sessions themselves live in the
// server-wide table; the shard records ownership accounting.
type shard struct {
	id          int
	active      atomic.Int64
	created     atomic.Uint64
	migratedIn  atomic.Uint64
	migratedOut atomic.Uint64

	// Robustness accounting: admitted-but-unfinished requests (load
	// shedding), requests shed, storage strikes, and the quarantine
	// latch strikes trip.
	inflight    atomic.Int64
	shed        atomic.Uint64
	strikes     atomic.Int64
	quarantined atomic.Bool
}

// Server owns a pool of simulated machines sharded across workers and
// serves them to concurrent clients over HTTP+JSON. See the package
// doc for the concurrency model.
type Server struct {
	cfg    Config
	shards []*shard

	ln  net.Listener
	srv *http.Server

	mu       sync.Mutex
	sessions map[string]*Session
	snaps    map[string]*storedSnapshot

	nextSession atomic.Uint64
	nextSnap    atomic.Uint64
	rr          atomic.Uint32

	created       atomic.Uint64
	closedCount   atomic.Uint64
	migrations    atomic.Uint64
	snapshots     atomic.Uint64
	restores      atomic.Uint64
	opsRetired    atomic.Uint64 // ops of closed sessions
	eventsRetired atomic.Uint64 // hub event totals of closed sessions
	dropsRetired  atomic.Uint64

	shedCount      atomic.Uint64 // requests shed with 429 across shards
	durabilityLost atomic.Uint64 // sessions dropped to memory-only

	// recovered is the last Recover() report (guarded by mu; zero when
	// the server never recovered a store).
	recovered RecoverReport

	// reg holds the read-only views /metrics serves (see metrics.go).
	reg *obs.Registry
}

// storedSnapshot is one server-held machine snapshot. The underlying
// MachineState is never mutated after capture (LoadState deep-copies),
// so one snapshot can seed any number of restores.
type storedSnapshot struct {
	st       *sim.MachineState
	ops      uint64
	arenaOff mem.Addr
	from     string // session the snapshot was taken of
	mode     string
}

// New builds a server; Start binds it to a listener.
func New(cfg Config) *Server {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 1024
	}
	if cfg.QuarantineAfter <= 0 {
		cfg.QuarantineAfter = 3
	}
	sv := &Server{
		cfg:      cfg,
		sessions: make(map[string]*Session),
		snaps:    make(map[string]*storedSnapshot),
	}
	for i := 0; i < cfg.Shards; i++ {
		sv.shards = append(sv.shards, &shard{id: i})
	}
	sv.reg = sv.registerMetrics()
	return sv
}

// Start listens on addr (":0" picks a free port) and serves until
// Close.
func (sv *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", sv.handleIndex)
	mux.HandleFunc("GET /healthz", sv.handleHealthz)
	mux.HandleFunc("GET /metrics", sv.handleMetrics)
	mux.HandleFunc("POST /sessions", sv.handleCreate)
	mux.HandleFunc("GET /sessions", sv.handleList)
	mux.HandleFunc("GET /sessions/{id}", sv.handleStats)
	mux.HandleFunc("GET /sessions/{id}/stats", sv.handleStats)
	mux.HandleFunc("POST /sessions/{id}/op", sv.handleOp)
	mux.HandleFunc("POST /sessions/{id}/step", sv.handleStep)
	mux.HandleFunc("POST /sessions/{id}/snapshot", sv.handleSnapshot)
	mux.HandleFunc("POST /sessions/{id}/migrate", sv.handleMigrate)
	mux.HandleFunc("DELETE /sessions/{id}", sv.handleDelete)
	mux.HandleFunc("GET /sessions/{id}/events", sv.handleEvents)
	mux.HandleFunc("POST /restore", sv.handleRestore)
	sv.ln = ln
	// Hardened defaults: a stalled or hostile client cannot hold a
	// connection open indefinitely or feed an unbounded header. The
	// /step and /events handlers, which legitimately outlive these
	// deadlines, clear them per-request via http.ResponseController.
	sv.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		MaxHeaderBytes:    64 << 10,
	}
	go sv.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return nil
}

// Addr returns the bound listen address.
func (sv *Server) Addr() string { return sv.ln.Addr().String() }

// Close stops serving and tears down every session.
func (sv *Server) Close() error {
	var err error
	if sv.srv != nil {
		err = sv.srv.Close()
	}
	sv.mu.Lock()
	sessions := make([]*Session, 0, len(sv.sessions))
	for _, s := range sv.sessions {
		sessions = append(sessions, s)
	}
	sv.sessions = make(map[string]*Session)
	sv.mu.Unlock()
	for _, s := range sessions {
		sv.retire(s)
	}
	return err
}

// --- session lifecycle ------------------------------------------------

// createRequest is the POST /sessions body.
type createRequest struct {
	// Mode is "raw" (default) or a registered application name.
	Mode string `json:"mode,omitempty"`

	// Shard pins placement; nil round-robins.
	Shard *int `json:"shard,omitempty"`

	// App-mode knobs (see app.Config).
	Seed     int64 `json:"seed,omitempty"`
	Scale    int   `json:"scale,omitempty"`
	Opt      bool  `json:"opt,omitempty"`
	Prefetch bool  `json:"prefetch,omitempty"`

	// Chaos wraps the app run in the seeded relocation adversary.
	Chaos         bool  `json:"chaos,omitempty"`
	ChaosSeed     int64 `json:"chaosSeed,omitempty"`
	ChaosInterval int   `json:"chaosInterval,omitempty"`

	// Tiers builds the session's machine with n latency tiers (n >= 2;
	// 0 means untiered). App sessions additionally run under the online
	// migrator daemon; raw sessions get the tiered geometry only. The
	// remaining knobs mirror the CLI's -migrate-every, -fast-frac and
	// -tier-static flags and take the daemon's defaults when zero.
	Tiers        int     `json:"tiers,omitempty"`
	MigrateEvery int     `json:"migrateEvery,omitempty"`
	FastFrac     float64 `json:"fastFrac,omitempty"`
	TierStatic   bool    `json:"tierStatic,omitempty"`

	// Harts builds an app session's machine with n harts (n >= 2; 0 or
	// 1 means single-hart): harts 1..n-1 are relocator harts a
	// deterministic seeded scheduling group interleaves against the
	// guest's operations, racing concurrent relocations under the
	// forwarding safety net. SchedSeed seeds the interleaving and
	// SchedInterval is the mean guest operations between job launches
	// (zero takes the scheduler defaults), mirroring the CLI's -harts
	// and -sched-seed flags.
	Harts         int   `json:"harts,omitempty"`
	SchedSeed     int64 `json:"schedSeed,omitempty"`
	SchedInterval int   `json:"schedInterval,omitempty"`
}

// sessionInfo is the JSON view of a session.
type sessionInfo struct {
	ID    string `json:"id"`
	Mode  string `json:"mode"`
	Shard int    `json:"shard"`
	Chaos bool   `json:"chaos,omitempty"`
	Tiers int    `json:"tiers,omitempty"`
	Harts int    `json:"harts,omitempty"`
	Ops   uint64 `json:"ops"`
	Done  bool   `json:"done,omitempty"`
}

func (sv *Server) info(s *Session) sessionInfo {
	done := s.g != nil && s.g.finished()
	return sessionInfo{
		ID:    s.ID,
		Mode:  s.Mode,
		Shard: int(s.shard.Load()),
		Chaos: s.Chaos,
		Tiers: s.Tiers,
		Harts: s.Harts,
		Ops:   s.ops(),
		Done:  done,
	}
}

// pickShard resolves a placement request against the shard pool,
// skipping quarantined shards when round-robining. Pinning to a
// quarantined shard is refused: the client asked for a home the server
// knows it cannot keep durable.
func (sv *Server) pickShard(req *int) (int, error) {
	if req != nil {
		if *req < 0 || *req >= len(sv.shards) {
			return 0, fmt.Errorf("shard %d out of range [0,%d)", *req, len(sv.shards))
		}
		if sv.shards[*req].quarantined.Load() {
			return 0, fmt.Errorf("shard %d is quarantined", *req)
		}
		return *req, nil
	}
	for i := 0; i < len(sv.shards); i++ {
		id := int(sv.rr.Add(1)-1) % len(sv.shards)
		if !sv.shards[id].quarantined.Load() {
			return id, nil
		}
	}
	return 0, errors.New("all shards quarantined")
}

// createSession builds, persists, and registers a session (also the
// entry point the in-process proof tests use).
func (sv *Server) createSession(req createRequest) (*Session, error) {
	shardID, err := sv.pickShard(req.Shard)
	if err != nil {
		return nil, err
	}
	id := fmt.Sprintf("s-%d", sv.nextSession.Add(1))
	s, err := newSession(id, shardID, sv.cfg.Sim, req)
	if err != nil {
		return nil, err
	}
	s.reqJSON, _ = json.Marshal(req) //nolint:errcheck // plain struct cannot fail
	if err := sv.persistNewSession(s); err != nil {
		sv.strike(shardID)
		s.mu.Lock()
		s.close()
		s.mu.Unlock()
		return nil, fmt.Errorf("persist session: %w", err)
	}
	sv.mu.Lock()
	sv.sessions[id] = s
	sv.mu.Unlock()
	sv.shards[shardID].active.Add(1)
	sv.shards[shardID].created.Add(1)
	sv.created.Add(1)
	return s, nil
}

// session looks a live session up.
func (sv *Server) session(id string) (*Session, bool) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	s, ok := sv.sessions[id]
	return s, ok
}

// migrateSession re-homes s onto shard `to`.
func (sv *Server) migrateSession(s *Session, to int) error {
	if to < 0 || to >= len(sv.shards) {
		return fmt.Errorf("shard %d out of range [0,%d)", to, len(sv.shards))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("session %s is closed", s.ID)
	}
	from := int(s.shard.Load())
	if err := s.migrate(to); err != nil {
		return err
	}
	if from != to {
		sv.shards[from].active.Add(-1)
		sv.shards[from].migratedOut.Add(1)
		sv.shards[to].active.Add(1)
		sv.shards[to].migratedIn.Add(1)
	}
	sv.migrations.Add(1)
	// The durable meta records the shard (and, for raw sessions, the
	// arena cursor the shard implies), so it must follow the move. A
	// failed rewrite leaves a meta that would replay relocations against
	// the wrong arena region — drop durability rather than keep a lie.
	if s.log != nil {
		if err := sv.persistCheckpoint(s); err != nil {
			sv.dropDurability(s, err)
		}
	}
	return nil
}

// snapshotSession captures s into the server-held snapshot store.
func (sv *Server) snapshotSession(s *Session) (string, *storedSnapshot) {
	s.mu.Lock()
	snap := &storedSnapshot{
		st:       s.save(),
		ops:      s.ops(),
		arenaOff: s.arenaOff,
		from:     s.ID,
		mode:     s.Mode,
	}
	s.mu.Unlock()
	id := fmt.Sprintf("snap-%d", sv.nextSnap.Add(1))
	sv.mu.Lock()
	sv.snaps[id] = snap
	sv.mu.Unlock()
	sv.snapshots.Add(1)
	return id, snap
}

// restoreSnapshot instantiates a stored snapshot as a new raw session
// on the given shard (negative round-robins). App-mode snapshots also
// restore as raw sessions: the machine state is complete, but the
// application's control flow is host state that only travels with a
// live migration.
func (sv *Server) restoreSnapshot(snapID string, shardReq *int) (*Session, error) {
	sv.mu.Lock()
	snap, ok := sv.snaps[snapID]
	sv.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("unknown snapshot %q", snapID)
	}
	shardID, err := sv.pickShard(shardReq)
	if err != nil {
		return nil, err
	}
	id := fmt.Sprintf("s-%d", sv.nextSession.Add(1))
	s := &Session{
		ID:   id,
		Mode: "raw",
		cfg:  snap.st.Config(),
		hub:  obs.NewBroadcaster(),
	}
	s.shard.Store(int32(shardID))
	s.tr = obs.NewTracer(obs.NoClose(s.hub), 32)
	m := sim.New(snap.st.Config())
	if err := m.LoadState(snap.st); err != nil {
		return nil, fmt.Errorf("restore %s: %w", snapID, err)
	}
	m.SetTracer(s.tr)
	s.m = m
	s.rawOps.Store(snap.ops)
	s.arenaOff = snap.arenaOff
	s.arenaNext = shardArenaBase(shardID) + snap.arenaOff
	if err := sv.persistNewSession(s); err != nil {
		sv.strike(shardID)
		s.mu.Lock()
		s.close()
		s.mu.Unlock()
		return nil, fmt.Errorf("persist session: %w", err)
	}
	sv.mu.Lock()
	sv.sessions[id] = s
	sv.mu.Unlock()
	sv.shards[shardID].active.Add(1)
	sv.shards[shardID].created.Add(1)
	sv.created.Add(1)
	sv.restores.Add(1)
	return s, nil
}

// deleteSession removes and retires a session.
func (sv *Server) deleteSession(id string) bool {
	sv.mu.Lock()
	s, ok := sv.sessions[id]
	if ok {
		delete(sv.sessions, id)
	}
	sv.mu.Unlock()
	if !ok {
		return false
	}
	sv.retire(s)
	if st := sv.cfg.Store; st != nil {
		st.removeSession(id) //nolint:errcheck // deletion is best-effort on a dead store
	}
	return true
}

// retire closes a session already removed from the table and folds its
// accounting into the retired counters.
func (sv *Server) retire(s *Session) {
	s.mu.Lock()
	ops := s.ops()
	events, drops, _ := s.hub.Stats()
	s.close()
	s.mu.Unlock()
	sv.shards[int(s.shard.Load())].active.Add(-1)
	sv.opsRetired.Add(ops)
	sv.eventsRetired.Add(events)
	sv.dropsRetired.Add(drops)
	sv.closedCount.Add(1)
}

// --- raw guest operations ---------------------------------------------

// opRequest is one raw guest operation; the POST .../op body is either
// a single opRequest or {"ops": [...]} for a batch.
type opRequest struct {
	Op    string      `json:"op"`
	Addr  uint64      `json:"addr,omitempty"`
	Size  uint64      `json:"size,omitempty"` // malloc bytes, or access size (default 8)
	Value uint64      `json:"value,omitempty"`
	Words int         `json:"words,omitempty"` // relocate length (default: whole block)
	Ops   []opRequest `json:"ops,omitempty"`
}

// opResult is one operation's outcome.
type opResult struct {
	Addr   uint64 `json:"addr,omitempty"`   // malloc result
	Value  uint64 `json:"value,omitempty"`  // load / digest result
	FBit   bool   `json:"fbit,omitempty"`   // fbit result
	Target uint64 `json:"target,omitempty"` // relocate target
}

// execOp runs one raw guest operation under s.mu. Guest-level mistakes
// (bad free, misaligned access) surface as errors, not server panics.
func (s *Session) execOp(req opRequest) (res opResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("op %q: %v", req.Op, r)
		}
	}()
	size := uint(req.Size)
	if size == 0 {
		size = 8
	}
	switch req.Op {
	case "malloc":
		if req.Size == 0 {
			return res, fmt.Errorf("malloc needs size")
		}
		res.Addr = uint64(s.m.Malloc(req.Size))
	case "free":
		if !s.m.Allocator().Live(mem.Addr(req.Addr)) {
			return res, fmt.Errorf("free of non-live block %#x", req.Addr)
		}
		s.m.Free(mem.Addr(req.Addr))
	case "load":
		res.Value = s.m.Load(mem.Addr(req.Addr), size)
	case "store":
		s.m.Store(mem.Addr(req.Addr), req.Value, size)
	case "fbit":
		res.FBit = s.m.ReadFBit(mem.Addr(req.Addr))
	case "final":
		res.Addr = uint64(s.m.FinalAddr(mem.Addr(req.Addr)))
	case "relocate":
		src, words, bytes, perr := s.relocatePlan(req)
		if perr != nil {
			return res, perr
		}
		tgt := s.arenaNext
		s.arenaNext += mem.Addr(bytes)
		s.arenaOff += mem.Addr(bytes)
		if err := opt.TryRelocate(s.m, src, tgt, words); err != nil {
			return res, err
		}
		res.Target = uint64(tgt)
	case "digest":
		d, derr := oracle.DigestModuloForwarding(s.m.Mem, s.m.Fwd, s.m.Alloc)
		if derr != nil {
			return res, derr
		}
		res.Value = d
	default:
		return res, fmt.Errorf("unknown op %q", req.Op)
	}
	switch req.Op {
	case "malloc", "free", "load", "store":
		s.rawOps.Add(1)
	}
	return res, nil
}

// relocatePlan validates a relocate request without mutating anything:
// the source block, the word count (default: the whole block), and the
// page-rounded arena bytes the relocation will consume. The durable
// path needs the plan before execution so the WAL intent precedes the
// state change.
func (s *Session) relocatePlan(req opRequest) (src mem.Addr, words int, bytes uint64, err error) {
	blockSize, ok := s.m.Allocator().SizeOf(mem.Addr(req.Addr))
	if !ok {
		return 0, 0, 0, fmt.Errorf("relocate of non-live block %#x", req.Addr)
	}
	words = req.Words
	if words <= 0 {
		words = int(blockSize / mem.WordSize)
	}
	if uint64(words)*mem.WordSize > blockSize {
		return 0, 0, 0, fmt.Errorf("relocate of %d words exceeds block size %d", words, blockSize)
	}
	bytes = (uint64(words)*mem.WordSize + 0xFFF) &^ uint64(0xFFF)
	return mem.Addr(req.Addr), words, bytes, nil
}

// tryRelocate runs TryRelocate with execOp's panic containment (the
// durable path and WAL replay call it outside execOp).
func (s *Session) tryRelocate(src, tgt mem.Addr, words int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("relocate: %v", r)
		}
	}()
	return opt.TryRelocate(s.m, src, tgt, words)
}

// --- HTTP plumbing ----------------------------------------------------

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	report.WriteJSON(w, v) //nolint:errcheck // headers sent; nothing left to do
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	report.WriteJSON(w, map[string]string{"error": fmt.Sprintf(format, args...)}) //nolint:errcheck
}

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
			return false
		}
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// clearDeadlines lifts the server's read/write timeouts for a handler
// that legitimately outlives them (long-blocking /step, streaming
// /events).
func clearDeadlines(w http.ResponseWriter) {
	rc := http.NewResponseController(w)
	rc.SetReadDeadline(time.Time{})  //nolint:errcheck // best-effort
	rc.SetWriteDeadline(time.Time{}) //nolint:errcheck // best-effort
}

func (sv *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{
		"healthz":  "/healthz",
		"metrics":  "/metrics",
		"sessions": "POST /sessions {mode, shard?, seed, opt, chaos...}; GET /sessions",
		"op":       "POST /sessions/{id}/op {op: malloc|free|load|store|relocate|fbit|final|digest, ...} or {ops: [...]}",
		"step":     "POST /sessions/{id}/step {ops: N} (app sessions)",
		"stats":    "GET /sessions/{id}/stats",
		"snapshot": "POST /sessions/{id}/snapshot",
		"restore":  "POST /restore {snapshot, shard?}",
		"migrate":  "POST /sessions/{id}/migrate {shard}",
		"events":   "GET /sessions/{id}/events (NDJSON stream)",
	})
}

func (sv *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sv.mu.Lock()
	n := len(sv.sessions)
	sv.mu.Unlock()
	quarantined := 0
	for _, sh := range sv.shards {
		if sh.quarantined.Load() {
			quarantined++
		}
	}
	resp := map[string]any{
		"ok":          quarantined < len(sv.shards),
		"shards":      len(sv.shards),
		"quarantined": quarantined,
		"sessions":    n,
	}
	if st := sv.cfg.Store; st != nil {
		resp["store"] = map[string]any{"dir": st.Dir(), "dead": st.Dead()}
		if st.Dead() {
			resp["ok"] = false
		}
	}
	writeJSON(w, resp)
}

func (sv *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if !decode(w, r, &req) {
		return
	}
	s, err := sv.createSession(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, sv.info(s))
}

func (sv *Server) handleList(w http.ResponseWriter, r *http.Request) {
	sv.mu.Lock()
	infos := make([]sessionInfo, 0, len(sv.sessions))
	for _, s := range sv.sessions {
		infos = append(infos, sv.info(s))
	}
	sv.mu.Unlock()
	writeJSON(w, map[string]any{"sessions": infos})
}

func (sv *Server) handleOp(w http.ResponseWriter, r *http.Request) {
	s, ok := sv.session(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown session")
		return
	}
	if s.Mode != "raw" {
		writeErr(w, http.StatusConflict, "session %s runs app %q; use /step", s.ID, s.Mode)
		return
	}
	release, ok := sv.admit(w, s)
	if !ok {
		return
	}
	defer release()
	var req opRequest
	if !decode(w, r, &req) {
		return
	}
	batch := req.Ops
	single := len(batch) == 0
	if single {
		batch = []opRequest{req}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeErr(w, http.StatusGone, "session %s is closed", s.ID)
		return
	}
	results, err := sv.execOps(s, batch)
	s.mu.Unlock()
	if err != nil {
		var ge *guestOpError
		if errors.As(err, &ge) {
			writeErr(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		writeErr(w, http.StatusServiceUnavailable, "storage: %v", err)
		return
	}
	if single {
		writeJSON(w, results[0])
		return
	}
	writeJSON(w, map[string]any{"results": results})
}

// stepResponse is the POST .../step reply.
type stepResponse struct {
	Used   int64       `json:"used"` // total guest ops consumed so far
	Done   bool        `json:"done"`
	Result *stepResult `json:"result,omitempty"`
}

type stepResult struct {
	Checksum      uint64 `json:"checksum"`
	Relocated     int    `json:"relocated"`
	SpaceOverhead uint64 `json:"spaceOverhead"`
	Err           string `json:"err,omitempty"`
}

func (sv *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	s, ok := sv.session(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown session")
		return
	}
	if s.g == nil {
		writeErr(w, http.StatusConflict, "session %s is raw; use /op", s.ID)
		return
	}
	release, admitted := sv.admit(w, s)
	if !admitted {
		return
	}
	defer release()
	var req struct {
		Ops int64 `json:"ops"`
	}
	if !decode(w, r, &req) {
		return
	}
	if req.Ops <= 0 {
		writeErr(w, http.StatusBadRequest, "ops must be positive")
		return
	}
	// Stepping blocks until the runner consumes the grant, which can
	// outlive the server's write deadline.
	clearDeadlines(w)
	used, done, serr := sv.stepSession(s, req.Ops)
	if serr != nil {
		writeErr(w, http.StatusServiceUnavailable, "storage: %v", serr)
		return
	}
	resp := stepResponse{Used: used, Done: done}
	if done {
		res, err := s.result()
		sr := stepResult{Checksum: res.Checksum, Relocated: res.Relocated, SpaceOverhead: res.SpaceOverhead}
		if err != nil {
			sr.Err = err.Error()
		}
		resp.Result = &sr
	}
	writeJSON(w, resp)
}

func (sv *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s, ok := sv.session(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown session")
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeErr(w, http.StatusGone, "session %s is closed", s.ID)
		return
	}
	info := sv.info(s)
	dig, err := s.digest()
	var stats *sim.Stats
	s.withMachine(func(m *sim.Machine) error { //nolint:errcheck // fn returns nil
		stats = m.Snapshot()
		return nil
	})
	tv := s.tierSnapshot()
	s.mu.Unlock()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "digest: %v", err)
		return
	}
	resp := map[string]any{
		"session": info,
		"digest":  fmt.Sprintf("%#x", dig),
		"stats":   stats,
	}
	if tv != nil {
		resp["tier"] = tv
	}
	writeJSON(w, resp)
}

func (sv *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s, ok := sv.session(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown session")
		return
	}
	id, snap := sv.snapshotSession(s)
	resp := map[string]any{"snapshot": id, "session": sv.info(s)}
	if st := sv.cfg.Store; st != nil {
		// The in-memory snapshot is already taken; persistence failure
		// degrades the reply, not the capture.
		if err := st.writeSnapshot(id, snap); err != nil {
			sv.strike(int(s.shard.Load()))
			resp["durable"] = false
			resp["storeError"] = err.Error()
		} else {
			resp["durable"] = true
		}
	}
	writeJSON(w, resp)
}

func (sv *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Snapshot string `json:"snapshot"`
		Shard    *int   `json:"shard,omitempty"`
	}
	if !decode(w, r, &req) {
		return
	}
	s, err := sv.restoreSnapshot(req.Snapshot, req.Shard)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, sv.info(s))
}

func (sv *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	s, ok := sv.session(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown session")
		return
	}
	var req struct {
		Shard int `json:"shard"`
	}
	if !decode(w, r, &req) {
		return
	}
	if err := sv.migrateSession(s, req.Shard); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, sv.info(s))
}

func (sv *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !sv.deleteSession(r.PathValue("id")) {
		writeErr(w, http.StatusNotFound, "unknown session")
		return
	}
	writeJSON(w, map[string]bool{"deleted": true})
}

// handleEvents streams the session's live trace events as NDJSON until
// the client disconnects or the session closes (which closes its hub;
// queued batches drain first — the Broadcaster contract).
func (sv *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s, ok := sv.session(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown session")
		return
	}
	clearDeadlines(w) // the stream outlives any fixed write deadline
	telemetry.StreamEvents(w, r, s.hub)
}
