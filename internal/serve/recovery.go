package serve

// Restart recovery: rebuilding a server's sessions and snapshots from
// the durable store after a crash. Call Recover on a freshly built
// Server (same Shards and Sim configuration that wrote the store)
// before Start.
//
// Per session directory:
//
//  1. Stale .tmp files from torn atomic writes are removed; a missing
//     snap file means the crash beat the first meta write — the session
//     was never acked and its directory is cleaned up.
//  2. The WAL is scanned record by record; a torn or corrupt tail is
//     rolled back to the last intact record (TailRollbacks), and
//     records older than the meta's walSeq — leftovers of a checkpoint
//     that crashed between meta write and WAL reset — are dropped.
//  3. Raw sessions rebuild machine state from the snapshot and replay
//     the surviving records. A dangling relocation intent at the tail
//     (the crash hit between intent and commit) is scavenged forward
//     with the fault package's journal machinery — the disk-layer twin
//     of repairing a torn in-memory relocation. App sessions re-execute
//     deterministically from their create request, re-granting the
//     largest journaled cumulative step total.
//
// Anything that fails validation counts as Damaged and stays on disk,
// unrecovered, for inspection; recovery never guesses.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"memfwd/internal/fault"
	"memfwd/internal/mem"
	"memfwd/internal/obs"
	"memfwd/internal/sim"
)

// RecoverReport summarizes what Recover rebuilt and repaired.
type RecoverReport struct {
	Sessions       int `json:"sessions"`
	Snapshots      int `json:"snapshots"`
	ReplayedOps    int `json:"replayedOps"`
	ReplayedGrants int `json:"replayedGrants"`
	TailRollbacks  int `json:"tailRollbacks"`
	Scavenges      int `json:"scavenges"`
	Damaged        int `json:"damaged"`
}

// Recover scans the configured store and re-materializes every
// recoverable session and snapshot into the server. It must run before
// Start, on a server built with the same Shards and Sim configuration
// that wrote the store.
func (sv *Server) Recover() (RecoverReport, error) {
	var rep RecoverReport
	st := sv.cfg.Store
	if st == nil {
		return rep, errors.New("serve: recover needs a configured store")
	}
	if err := sv.recoverSessions(st, &rep); err != nil {
		return rep, err
	}
	if err := sv.recoverSnapshots(st, &rep); err != nil {
		return rep, err
	}
	sv.mu.Lock()
	sv.recovered = rep
	sv.mu.Unlock()
	return rep, nil
}

func (sv *Server) recoverSessions(st *Store, rep *RecoverReport) error {
	dir := filepath.Join(st.cfg.Dir, "sessions")
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, id := range names {
		bumpCounter(&sv.nextSession, id, "s-")
		s, err := sv.recoverSession(st, id, rep)
		if err != nil {
			rep.Damaged++
			continue
		}
		if s == nil {
			continue // unacked creation, cleaned up
		}
		shardID := int(s.shard.Load())
		sv.mu.Lock()
		sv.sessions[s.ID] = s
		sv.mu.Unlock()
		sv.shards[shardID].active.Add(1)
		rep.Sessions++
	}
	return nil
}

// bumpCounter advances an id counter past a recovered "<prefix>N" name
// so new ids never collide with recovered ones. Recovery is
// single-threaded, so Load+Store does not race.
func bumpCounter(ctr *atomic.Uint64, name, prefix string) {
	if !strings.HasPrefix(name, prefix) {
		return
	}
	n, err := strconv.ParseUint(strings.TrimPrefix(name, prefix), 10, 64)
	if err != nil {
		return
	}
	if n > ctr.Load() {
		ctr.Store(n)
	}
}

// recoverSession rebuilds one session from its directory. A nil, nil
// return means there was nothing durable to recover (creation never
// acked). Errors mean damage: the caller counts it and moves on.
func (sv *Server) recoverSession(st *Store, id string, rep *RecoverReport) (*Session, error) {
	os.Remove(st.sessionSnapPath(id) + ".tmp") //nolint:errcheck // stale torn write
	data, err := os.ReadFile(st.sessionSnapPath(id))
	if os.IsNotExist(err) {
		// The crash beat the first meta write; the session was never
		// acknowledged to anyone.
		os.RemoveAll(st.sessionDir(id)) //nolint:errcheck // best-effort
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	meta, err := decodeSessionMeta(data)
	if err != nil {
		return nil, err
	}
	if meta.id != id {
		return nil, fmt.Errorf("serve: session dir %q holds meta for %q", id, meta.id)
	}
	if meta.shard < 0 || meta.shard >= len(sv.shards) {
		return nil, fmt.Errorf("serve: session %s on shard %d, server has %d", id, meta.shard, len(sv.shards))
	}

	recs, validLen, rolledBack, err := st.readWAL(id)
	if err != nil {
		return nil, err
	}
	if rolledBack {
		if err := os.Truncate(st.sessionWALPath(id), validLen); err != nil {
			return nil, err
		}
		rep.TailRollbacks++
	}
	// Drop records a crashed checkpoint already folded into the meta,
	// then insist the survivors are the contiguous run the append
	// protocol guarantees.
	live := recs[:0]
	for _, rec := range recs {
		if rec.seq >= meta.walSeq {
			live = append(live, rec)
		}
	}
	for i, rec := range live {
		if rec.seq != meta.walSeq+uint64(i) {
			return nil, fmt.Errorf("serve: session %s WAL seq %d, want %d", id, rec.seq, meta.walSeq+uint64(i))
		}
	}
	if len(live) == 0 && validLen > 0 {
		// Every record was stale: finish the checkpoint's interrupted
		// reset so the file and the meta agree again.
		if err := os.Truncate(st.sessionWALPath(id), 0); err != nil {
			return nil, err
		}
		validLen = 0
	}

	var s *Session
	if meta.mode == "raw" {
		s, err = sv.recoverRawSession(meta, live, rep)
	} else {
		s, err = sv.recoverAppSession(meta, live, rep)
	}
	if err != nil {
		return nil, err
	}
	nextSeq := meta.walSeq
	if n := len(live); n > 0 {
		nextSeq = live[n-1].seq + 1
	}
	l, err := st.openSessionLog(id, validLen, nextSeq, len(live))
	if err != nil {
		s.mu.Lock()
		s.close()
		s.mu.Unlock()
		return nil, err
	}
	s.log = l
	return s, nil
}

// recoverRawSession rebuilds a raw session: decode the snapshot state,
// load it into a fresh machine, replay the WAL.
func (sv *Server) recoverRawSession(meta *sessionMeta, recs []*walRecord, rep *RecoverReport) (*Session, error) {
	mst, err := sim.DecodeState(meta.state)
	if err != nil {
		return nil, err
	}
	var req createRequest
	if len(meta.req) > 0 {
		json.Unmarshal(meta.req, &req) //nolint:errcheck // cosmetic fields only
	}
	s := &Session{
		ID:    meta.id,
		Mode:  "raw",
		Tiers: req.Tiers,
		cfg:   mst.Config(),
		hub:   obs.NewBroadcaster(),
	}
	s.shard.Store(int32(meta.shard))
	s.tr = obs.NewTracer(obs.NoClose(s.hub), 32)
	m := sim.New(mst.Config())
	if err := m.LoadState(mst); err != nil {
		return nil, fmt.Errorf("serve: recover %s: %w", meta.id, err)
	}
	m.SetTracer(s.tr)
	s.m = m
	s.reqJSON = meta.req
	s.rawOps.Store(meta.rawOps)
	s.arenaOff = meta.arenaOff
	s.arenaNext = shardArenaBase(meta.shard) + meta.arenaOff
	if err := sv.replayRaw(s, recs, rep); err != nil {
		return nil, fmt.Errorf("serve: recover %s: %w", meta.id, err)
	}
	return s, nil
}

// replayRaw re-executes journaled records against a session restored
// to its snapshot state. Every record journaled a deterministic
// operation that succeeded (or, for relocations, whose outcome was
// journaled), so replay divergence means damage.
func (sv *Server) replayRaw(s *Session, recs []*walRecord, rep *RecoverReport) error {
	for i := 0; i < len(recs); i++ {
		rec := recs[i]
		switch rec.kind {
		case recOp:
			req := opRequest{Op: opNameFor(rec.opCode), Addr: rec.addr, Size: rec.size, Value: rec.value}
			if _, err := s.execOp(req); err != nil {
				return fmt.Errorf("replay %s (seq %d): %w", req.Op, rec.seq, err)
			}
			rep.ReplayedOps++
		case recIntent:
			if rec.tgt != uint64(s.arenaNext) {
				return fmt.Errorf("replay intent (seq %d): target %#x, cursor at %#x", rec.seq, rec.tgt, s.arenaNext)
			}
			bytes := (uint64(rec.words)*mem.WordSize + 0xFFF) &^ uint64(0xFFF)
			s.arenaNext += mem.Addr(bytes)
			s.arenaOff += mem.Addr(bytes)
			if i+1 < len(recs) {
				commit := recs[i+1]
				if commit.kind != recCommit || commit.tgt != rec.tgt {
					return fmt.Errorf("replay intent (seq %d): not followed by its commit", rec.seq)
				}
				i++
				// Re-run the relocation exactly as the original did — a
				// failed attempt also ran against the machine, so a
				// journaled failure is replayed, not skipped.
				err := s.tryRelocate(mem.Addr(rec.src), mem.Addr(rec.tgt), rec.words)
				if (err == nil) != commit.ok {
					return fmt.Errorf("replay relocate (seq %d): outcome %v, journal says ok=%v", rec.seq, err, commit.ok)
				}
				rep.ReplayedOps++
				continue
			}
			// Dangling intent at the tail: the crash hit after the intent
			// was durable but before the commit. The in-memory relocation
			// may have completed, partially run, or never started — from
			// the snapshot+replay state all three look the same, and the
			// journal roll-forward drives it to completion (relocation
			// never changes the digest modulo forwarding, so either
			// allowed post-crash state has the same digest).
			j := &fault.Journal{Active: true, Src: mem.Addr(rec.src), Tgt: mem.Addr(rec.tgt), NWords: rec.words}
			if _, err := fault.Scavenge(s.m.Mem, s.m.Fwd, j, nil); err != nil {
				return fmt.Errorf("replay scavenge (seq %d): %w", rec.seq, err)
			}
			rep.Scavenges++
		case recCommit:
			return fmt.Errorf("replay: commit (seq %d) without an intent", rec.seq)
		case recGrant:
			return fmt.Errorf("replay: grant record (seq %d) in a raw session", rec.seq)
		}
	}
	return nil
}

// recoverAppSession rebuilds an app session by deterministic
// re-execution: the create request reconstructs the exact app, chaos,
// scheduler, and tier stack, and re-granting the largest journaled
// cumulative step total replays the guest to where the crashed server
// had acknowledged it.
func (sv *Server) recoverAppSession(meta *sessionMeta, recs []*walRecord, rep *RecoverReport) (*Session, error) {
	var req createRequest
	if err := json.Unmarshal(meta.req, &req); err != nil {
		return nil, fmt.Errorf("serve: recover %s: bad create request: %w", meta.id, err)
	}
	var maxUsed int64
	grants := 0
	for _, rec := range recs {
		if rec.kind != recGrant {
			return nil, fmt.Errorf("serve: recover %s: record kind %d in an app WAL", meta.id, rec.kind)
		}
		if rec.used > maxUsed {
			maxUsed = rec.used
		}
		grants++
	}
	s, err := newSession(meta.id, meta.shard, sv.cfg.Sim, req)
	if err != nil {
		return nil, fmt.Errorf("serve: recover %s: %w", meta.id, err)
	}
	s.reqJSON = meta.req
	if maxUsed > 0 {
		s.g.step(maxUsed)
	}
	rep.ReplayedGrants += grants
	return s, nil
}

func (sv *Server) recoverSnapshots(st *Store, rep *RecoverReport) error {
	dir := filepath.Join(st.cfg.Dir, "snapshots")
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name)) //nolint:errcheck // stale torn write
			continue
		}
		if strings.HasSuffix(name, ".bin") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		id := strings.TrimSuffix(name, ".bin")
		bumpCounter(&sv.nextSnap, id, "snap-")
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			rep.Damaged++
			continue
		}
		sf, err := decodeSnapFile(data)
		if err != nil {
			rep.Damaged++
			continue
		}
		mst, err := sim.DecodeState(sf.state)
		if err != nil {
			rep.Damaged++
			continue
		}
		sv.mu.Lock()
		sv.snaps[id] = &storedSnapshot{
			st:       mst,
			ops:      sf.ops,
			arenaOff: sf.arenaOff,
			from:     sf.from,
			mode:     sf.mode,
		}
		sv.mu.Unlock()
		rep.Snapshots++
	}
	return nil
}
