package serve

// The server side of durability: journaling raw guest operations and
// app step grants through each session's WAL (store.go), folding the
// log back into the snapshot file at checkpoints, and degrading
// gracefully — strike-counted shard quarantine, per-session durability
// drop — when the disk misbehaves short of killing the process.
//
// The write-ahead discipline, which recovery.go replays:
//
//   - Plain ops (malloc/free/load/store/fbit/final) execute first and
//     are journaled after. A crash between the two loses an op the
//     client was never acked — recovery lands on the pre-op state,
//     which the crash contract allows. digest is a pure untimed read
//     and is not journaled.
//   - relocate journals an intent record BEFORE touching anything, and
//     a commit record after TryRelocate resolves. A crash between the
//     two leaves a dangling intent at the WAL tail; recovery scavenges
//     it forward with the fault package's journal machinery.
//   - A batch is acknowledged only after sync(): every record above is
//     durable. Grants journal after the step completes, same contract.

import (
	"fmt"
	"net/http"

	"memfwd/internal/mem"
	"memfwd/internal/sim"
)

// guestOpError marks a client-caused failure within a batch (HTTP 422),
// as opposed to a storage failure (503).
type guestOpError struct {
	index int
	err   error
}

func (e *guestOpError) Error() string { return fmt.Sprintf("op %d: %v", e.index, e.err) }
func (e *guestOpError) Unwrap() error { return e.err }

// strike records a storage failure against a shard; enough strikes
// quarantine it out of new-session placement (existing sessions keep
// serving — degradation, not eviction).
func (sv *Server) strike(shardID int) {
	sh := sv.shards[shardID]
	if sh.strikes.Add(1) >= int64(sv.cfg.QuarantineAfter) {
		sh.quarantined.Store(true)
	}
}

// admit applies per-shard load shedding. On refusal it has already
// written the 429; on success the returned release must run when the
// request finishes.
func (sv *Server) admit(w http.ResponseWriter, s *Session) (release func(), ok bool) {
	sh := sv.shards[int(s.shard.Load())]
	if sh.inflight.Add(1) > int64(sv.cfg.MaxInflight) {
		sh.inflight.Add(-1)
		sh.shed.Add(1)
		sv.shedCount.Add(1)
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "shard %d overloaded; retry later", sh.id)
		return nil, false
	}
	return func() { sh.inflight.Add(-1) }, true
}

// persistNewSession writes a fresh session's durable artifacts: the
// meta/snapshot file and an empty WAL. No-op without a store. Raw
// sessions persist their machine state; app sessions persist the
// create request and re-execute deterministically on recovery.
func (sv *Server) persistNewSession(s *Session) error {
	st := sv.cfg.Store
	if st == nil {
		return nil
	}
	meta, err := sv.sessionMetaFor(s, 1)
	if err != nil {
		return err
	}
	if err := st.writeSessionMeta(meta); err != nil {
		return err
	}
	l, err := st.openSessionLog(s.ID, 0, 1, 0)
	if err != nil {
		return err
	}
	s.log = l
	return nil
}

// sessionMetaFor captures the session's current durable meta with the
// given walSeq. Callers hold s.mu (or own the session exclusively).
func (sv *Server) sessionMetaFor(s *Session, walSeq uint64) (*sessionMeta, error) {
	meta := &sessionMeta{
		id:       s.ID,
		mode:     s.Mode,
		shard:    int(s.shard.Load()),
		req:      s.reqJSON,
		rawOps:   s.rawOps.Load(),
		arenaOff: s.arenaOff,
		walSeq:   walSeq,
	}
	if s.g == nil {
		data, err := sim.EncodeState(s.save())
		if err != nil {
			return nil, err
		}
		meta.state = data
	}
	return meta, nil
}

// persistCheckpoint folds the session's WAL into its snapshot file.
// For raw sessions the meta carries fresh machine state and the WAL
// resets; app sessions cannot fold grants into state (recovery
// re-executes from the recipe), so their meta rewrite keeps walSeq=1
// and the WAL intact. Callers hold s.mu.
func (sv *Server) persistCheckpoint(s *Session) error {
	st := sv.cfg.Store
	if st == nil || s.log == nil {
		return nil
	}
	walSeq := uint64(1)
	if s.g == nil {
		walSeq = s.log.seq
	}
	meta, err := sv.sessionMetaFor(s, walSeq)
	if err != nil {
		return err
	}
	if err := st.writeSessionMeta(meta); err != nil {
		return err
	}
	if s.g == nil {
		if err := s.log.reset(); err != nil {
			return err
		}
	}
	st.checkpoints.Add(1)
	return nil
}

// maybeCheckpoint runs a checkpoint when the WAL has grown past the
// configured cadence. Errors are swallowed: the batch that triggered
// us is already durable under the old meta + WAL, and a dead store
// surfaces on the next append. Callers hold s.mu.
func (sv *Server) maybeCheckpoint(s *Session) {
	if s.log == nil || s.g != nil || s.log.recs < sv.cfg.Store.cfg.CheckpointEvery {
		return
	}
	if err := sv.persistCheckpoint(s); err != nil && !sv.cfg.Store.Dead() {
		sv.strike(int(s.shard.Load()))
	}
}

// dropDurability downgrades a session to memory-only after the store
// exhausted its retries: the on-disk artifacts are removed (a stale
// snapshot must not resurrect at recovery and silently lose acked
// operations), the shard takes a strike, and the session keeps
// serving. Callers hold s.mu.
func (sv *Server) dropDurability(s *Session, cause error) {
	s.log.close() //nolint:errcheck // the fd is being abandoned
	s.log = nil
	if st := sv.cfg.Store; st != nil {
		st.removeSession(s.ID) //nolint:errcheck // best-effort
	}
	sv.durabilityLost.Add(1)
	sv.strike(int(s.shard.Load()))
}

// logAppend journals one record for s, classifying failures:
// nil session log (memory-only) is a no-op; a fatal fault (the store
// is dead — the simulated process died mid-write) propagates so the
// batch goes unacked; a transiently failing disk that exhausted its
// retries drops the session to memory-only and the operation proceeds
// unjournaled. Callers hold s.mu.
func (sv *Server) logAppend(s *Session, rec *walRecord) error {
	if s.log == nil {
		return nil
	}
	err := s.log.append(rec)
	if err == nil {
		return nil
	}
	if sv.cfg.Store.Dead() {
		return err
	}
	sv.dropDurability(s, err)
	return nil
}

// stepSession grants ops to an app session and journals the cumulative
// total consumed, syncing before the grant is acknowledged. Takes s.mu
// only around the journaling — stepping itself blocks until the runner
// consumes the grant, and control-plane calls must stay able to pause
// the runner mid-grant.
func (sv *Server) stepSession(s *Session, ops int64) (used int64, done bool, err error) {
	used, done = s.g.step(ops)
	// The grant is journaled after the fact — replay re-grants the
	// cumulative total, and deterministic re-execution reproduces the
	// machine. A crash between step and sync loses at most the unacked
	// tail of this grant.
	s.mu.Lock()
	err = sv.logAppend(s, &walRecord{kind: recGrant, used: used})
	if err == nil && s.log != nil {
		err = s.log.sync()
	}
	s.mu.Unlock()
	return used, done, err
}

// execOps runs a raw batch under the write-ahead discipline (see the
// file comment) and syncs before returning success — the caller acks
// the client only on nil error. Guest mistakes come back wrapped in
// *guestOpError; anything else is a storage failure. Callers hold
// s.mu.
func (sv *Server) execOps(s *Session, batch []opRequest) ([]opResult, error) {
	results := make([]opResult, 0, len(batch))
	for i, op := range batch {
		res, gerr, serr := sv.execDurableOp(s, op)
		if gerr != nil {
			return results, &guestOpError{index: i, err: gerr}
		}
		if serr != nil {
			return results, serr
		}
		results = append(results, res)
	}
	if s.log != nil {
		if err := s.log.sync(); err != nil {
			return results, err
		}
		sv.maybeCheckpoint(s)
	}
	return results, nil
}

// execDurableOp runs one op, journaling it when the session is
// durable. Returns (result, guest error, storage error).
func (sv *Server) execDurableOp(s *Session, op opRequest) (opResult, error, error) {
	if op.Op == "relocate" && s.log != nil {
		return sv.execDurableRelocate(s, op)
	}
	res, err := s.execOp(op)
	if err != nil {
		return res, err, nil
	}
	if code := opCodeFor(op.Op); code != 0 {
		rec := &walRecord{kind: recOp, opCode: code, addr: op.Addr, size: op.Size, value: op.Value}
		if serr := sv.logAppend(s, rec); serr != nil {
			// Executed but not journaled, and the client will see an
			// error: the op is unacked, so recovery's pre-op state is a
			// legal outcome.
			return res, nil, serr
		}
	}
	return res, nil, nil
}

// execDurableRelocate is the two-record relocation protocol: intent
// before any state changes, commit after TryRelocate resolves.
func (sv *Server) execDurableRelocate(s *Session, op opRequest) (opResult, error, error) {
	var res opResult
	src, words, bytes, perr := s.relocatePlan(op)
	if perr != nil {
		return res, perr, nil
	}
	tgt := s.arenaNext
	intent := &walRecord{kind: recIntent, src: uint64(src), tgt: uint64(tgt), words: words}
	if serr := sv.logAppend(s, intent); serr != nil {
		// Aborted pre-execution: the cursor never moved and no machine
		// state changed, matching what recovery will reconstruct.
		return res, nil, serr
	}
	s.arenaNext += mem.Addr(bytes)
	s.arenaOff += mem.Addr(bytes)
	rerr := s.tryRelocate(src, tgt, words)
	commit := &walRecord{kind: recCommit, tgt: uint64(tgt), ok: rerr == nil}
	if serr := sv.logAppend(s, commit); serr != nil {
		return res, nil, serr
	}
	if rerr != nil {
		return res, rerr, nil
	}
	res.Target = uint64(tgt)
	return res, nil, nil
}
