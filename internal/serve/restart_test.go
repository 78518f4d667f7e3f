package serve

import (
	"errors"
	"fmt"
	"testing"

	"memfwd"
	"memfwd/internal/apps/app"
	"memfwd/internal/fault"
	"memfwd/internal/oracle"
	"memfwd/internal/sim"
)

// The restart-recovery proof: a deterministic raw-session script is run
// against a durable server with a disk fault armed at every kind ×
// persistence point × visit, the "process" dies (the store latches
// dead), and a fresh server recovers the directory. The recovered
// session must land on the digest of the uncrashed control either
// before or after the last unacknowledged operation — no third state —
// with machine invariants intact.

// scriptStep is one deterministic raw operation; addr-taking steps name
// the source malloc by index so the script replays against whatever
// addresses the allocator hands out.
type scriptStep struct {
	op    string
	size  uint64 // malloc bytes
	block int    // index of the malloc that produced the base address
	off   uint64
	value uint64
}

// restartScript mixes every journaled op kind, including two
// relocations (intent/commit protocol) and frees, so the fault matrix
// sweeps the WAL grammar end to end. Relocated blocks are never freed:
// the allocator tracks them at their original address and the script
// stays valid either way, but keeping the cases disjoint makes each
// cell's failure mode readable.
var restartScript = []scriptStep{
	{op: "malloc", size: 128},                      // b0
	{op: "store", block: 0, off: 0, value: 0x1111}, // seq
	{op: "malloc", size: 256},                      // b1
	{op: "store", block: 1, off: 8, value: 0x2222},
	{op: "store", block: 0, off: 16, value: 0x3333},
	{op: "load", block: 0},
	{op: "malloc", size: 64}, // b2
	{op: "store", block: 2, off: 0, value: 0x4444},
	{op: "relocate", block: 0},
	{op: "fbit", block: 0},
	{op: "load", block: 0, off: 16},
	{op: "free", block: 2},
	{op: "malloc", size: 512}, // b3
	{op: "store", block: 3, off: 24, value: 0x5555},
	{op: "relocate", block: 1},
	{op: "final", block: 1},
	{op: "store", block: 1, off: 8, value: 0x6666},
	{op: "load", block: 3, off: 24},
	{op: "free", block: 3},
	{op: "malloc", size: 96}, // b4
	{op: "store", block: 4, off: 8, value: 0x7777},
	{op: "load", block: 4, off: 8},
}

// scriptDriver resolves script steps into concrete op requests.
type scriptDriver struct {
	addrs []uint64
}

func (d *scriptDriver) request(st scriptStep) opRequest {
	req := opRequest{Op: st.op}
	switch st.op {
	case "malloc":
		req.Size = st.size
	default:
		req.Addr = d.addrs[st.block] + st.off
	}
	return req
}

func (d *scriptDriver) observe(st scriptStep, res opResult) {
	if st.op == "malloc" {
		d.addrs = append(d.addrs, res.Addr)
	}
}

// restartStoreConfig keeps checkpoints frequent so the matrix exercises
// the meta-rewrite and WAL-reset seams many times per run.
func restartStoreConfig(dir string) StoreConfig {
	return StoreConfig{Dir: dir, CheckpointEvery: 3, Sleep: noSleep}
}

// restartControlDigests runs the script on a memory-only server and
// returns digests[k] = heap digest after k acknowledged batches
// (digests[0] is the fresh session).
func restartControlDigests(t *testing.T) []uint64 {
	t.Helper()
	sv := New(Config{Shards: 2})
	shard0 := 0
	s, err := sv.createSession(createRequest{Mode: "raw", Shard: &shard0})
	if err != nil {
		t.Fatal(err)
	}
	digests := make([]uint64, 0, len(restartScript)+1)
	snap := func() {
		s.mu.Lock()
		d, derr := s.digest()
		s.mu.Unlock()
		if derr != nil {
			t.Fatalf("control digest: %v", derr)
		}
		digests = append(digests, d)
	}
	snap()
	var drv scriptDriver
	for i, step := range restartScript {
		s.mu.Lock()
		results, err := sv.execOps(s, []opRequest{drv.request(step)}, nil)
		s.mu.Unlock()
		if err != nil {
			t.Fatalf("control step %d (%s): %v", i, step.op, err)
		}
		drv.observe(step, results[0])
		snap()
	}
	return digests
}

// restartRun is one scripted run against a faulty store.
type restartRun struct {
	st      *Store
	acked   int // batches acknowledged; -1 = session creation itself failed
	created bool
	failed  bool // a batch (or the creation) died on a storage error
}

// runRestartScript drives the script one op per batch against a durable
// server over dir, stopping at the first storage failure (guest errors
// fail the test: the script is valid by construction).
func runRestartScript(t *testing.T, dir string, in *fault.DiskInjector) restartRun {
	t.Helper()
	st, err := OpenStore(restartStoreConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	st.SetDiskInjector(in)
	sv := New(Config{Shards: 2, Store: st})
	shard0 := 0
	s, err := sv.createSession(createRequest{Mode: "raw", Shard: &shard0})
	if err != nil {
		return restartRun{st: st, acked: -1, failed: true}
	}
	run := restartRun{st: st, created: true}
	var drv scriptDriver
	for i, step := range restartScript {
		s.mu.Lock()
		results, err := sv.execOps(s, []opRequest{drv.request(step)}, nil)
		s.mu.Unlock()
		if err != nil {
			var ge *guestOpError
			if errors.As(err, &ge) {
				t.Fatalf("guest error at step %d (%s): %v", i, step.op, err)
			}
			run.failed = true
			return run
		}
		drv.observe(step, results[0])
		run.acked++
	}
	return run
}

// recoverDir restarts over dir: fresh store, fresh server, Recover.
func recoverDir(t *testing.T, dir string) (*Server, RecoverReport) {
	t.Helper()
	st, err := OpenStore(restartStoreConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	sv := New(Config{Shards: 2, Store: st})
	rep, err := sv.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return sv, rep
}

// digest computes the session's heap digest modulo forwarding. Callers
// hold s.mu.
func (s *Session) digest() (uint64, error) {
	var d uint64
	err := s.withMachine(func(m *sim.Machine) error {
		var err error
		d, err = oracle.DigestModuloForwarding(m.Mem, m.Fwd, m.Alloc)
		return err
	})
	return d, err
}

func sessionDigest(t *testing.T, s *Session) uint64 {
	t.Helper()
	s.mu.Lock()
	d, err := s.digest()
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("digest: %v", err)
	}
	return d
}

// TestRestartRecoveryEveryPoint is the tentpole proof. For every fault
// kind at every persistence point at every visit the clean run makes:
//
//   - fatal kinds (crash, torn) kill the run; recovery must land the
//     session on digests[acked] or digests[acked+1] (the batch in
//     flight was never acknowledged) with clean machine invariants,
//     and keep serving.
//   - transient kinds (short, flip) must be absorbed by retry /
//     read-back: the run completes every batch and recovery of the
//     final directory reproduces the final control digest exactly.
func TestRestartRecoveryEveryPoint(t *testing.T) {
	digests := restartControlDigests(t)

	// Discovery: count how often a clean durable run visits each point.
	visits := make(map[fault.DiskPoint]int)
	{
		in := fault.NewDisk(1)
		run := runRestartScript(t, t.TempDir(), in)
		if run.failed || run.acked != len(restartScript) {
			t.Fatalf("clean durable run failed: %+v", run)
		}
		for _, p := range fault.DiskPoints() {
			visits[p] = in.Visits(p)
			if visits[p] == 0 {
				t.Fatalf("persistence point %s never visited; the matrix would skip it", p)
			}
		}
	}

	var cells, scavenges, rollbacks int
	runCell := func(kind fault.DiskKind, point fault.DiskPoint, visit int) {
		t.Run(fmt.Sprintf("%v@%s/visit=%d", kind, point, visit), func(t *testing.T) {
			dir := t.TempDir()
			in := fault.NewDisk(int64(cells)*7919+13).Arm(kind, point, visit)
			run := runRestartScript(t, dir, in)
			if !in.Fired() {
				t.Fatalf("armed fault never fired (clean run visits %s %d times)", point, visits[point])
			}
			transient := kind == fault.DiskShort || kind == fault.DiskFlip
			if transient {
				if run.failed || run.acked != len(restartScript) {
					t.Fatalf("transient %v not absorbed: %+v", kind, run)
				}
				if run.st.retries.Load() == 0 {
					t.Fatal("transient fault absorbed without a recorded retry")
				}
				if run.st.Dead() {
					t.Fatal("transient fault latched the store dead")
				}
			} else if !run.st.Dead() {
				t.Fatalf("fatal %v did not latch the store dead: %+v", kind, run)
			}

			sv2, rep := recoverDir(t, dir)
			defer sv2.Close()
			if rep.Damaged != 0 {
				t.Fatalf("recovery reported damage: %+v", rep)
			}
			scavenges += rep.Scavenges
			rollbacks += rep.TailRollbacks

			if run.acked < 0 {
				// The creation itself died: it was never acknowledged, so
				// both zero sessions and one fresh session are legal.
				if rep.Sessions > 1 {
					t.Fatalf("recovered %d sessions from a dead creation", rep.Sessions)
				}
				if rep.Sessions == 1 {
					s2, ok := sv2.session("s-1")
					if !ok {
						t.Fatal("reported session not registered")
					}
					if d := sessionDigest(t, s2); d != digests[0] {
						t.Fatalf("recovered fresh session digest %#x, want %#x", d, digests[0])
					}
				}
				return
			}

			if rep.Sessions != 1 {
				t.Fatalf("recovered %d sessions, want 1", rep.Sessions)
			}
			s2, ok := sv2.session("s-1")
			if !ok {
				t.Fatal("recovered session not registered")
			}
			got := sessionDigest(t, s2)
			allowed := []uint64{digests[run.acked]}
			if run.acked+1 < len(digests) {
				allowed = append(allowed, digests[run.acked+1])
			}
			legal := false
			for _, d := range allowed {
				legal = legal || got == d
			}
			if !legal {
				t.Fatalf("recovered digest %#x after %d acked batches; allowed %#x", got, run.acked, allowed)
			}
			if err := oracle.CheckMachine(s2.m); err != nil {
				t.Fatalf("recovered machine invariants: %v", err)
			}
			// The recovered session keeps serving durably.
			s2.mu.Lock()
			_, err := sv2.execOps(s2, []opRequest{{Op: "malloc", Size: 48}}, nil)
			s2.mu.Unlock()
			if err != nil {
				t.Fatalf("recovered session refused new work: %v", err)
			}
		})
		cells++
	}

	for _, p := range fault.DiskPoints() {
		for v := 1; v <= visits[p]; v++ {
			runCell(fault.DiskCrash, p, v)
		}
	}
	for _, kind := range []fault.DiskKind{fault.DiskTorn, fault.DiskShort, fault.DiskFlip} {
		for _, p := range []fault.DiskPoint{fault.DiskSnapWrite, fault.DiskWALAppend} {
			for v := 1; v <= visits[p]; v++ {
				runCell(kind, p, v)
			}
		}
	}

	// The matrix must have exercised the interesting repairs somewhere:
	// dangling relocation intents scavenged forward, torn tails rolled
	// back. If neither ever happened the sweep is vacuous.
	if scavenges == 0 {
		t.Error("no cell scavenged a dangling relocation intent")
	}
	if rollbacks == 0 {
		t.Error("no cell rolled back a damaged WAL tail")
	}
	t.Logf("matrix: %d cells, %d scavenges, %d tail rollbacks", cells, scavenges, rollbacks)
}

// TestDurableChaosSessionRecovery is the app-mode acceptance case: a
// harts=4 chaos session persisted mid-episode recovers — by
// deterministic re-execution of its journaled grants — to the same
// digests, final checksum, and adversary action counts as an identical
// uncrashed twin following the in-memory snapshot/restore path.
func TestDurableChaosSessionRecovery(t *testing.T) {
	req := createRequest{
		Mode: "health", Opt: true, Seed: 7,
		Chaos: true, ChaosSeed: 99, ChaosInterval: 512,
		Harts: 4, SchedSeed: 5, SchedInterval: 8,
	}

	// Plain single-hart control: the strongest reference for the final
	// checksum and heap digest.
	a, ok := memfwd.AppByName(req.Mode)
	if !ok {
		t.Fatalf("unknown app %q", req.Mode)
	}
	ctrl := sim.New(sim.Config{})
	wantRes := a.Run(ctrl, app.Config{Opt: req.Opt, Seed: req.Seed})
	ctrl.Finalize()
	wantDig, err := oracle.DigestModuloForwarding(ctrl.Mem, ctrl.Fwd, ctrl.Alloc)
	if err != nil {
		t.Fatalf("control digest: %v", err)
	}

	// Twin: the identical session on a memory-only server, driven with
	// the same grants — the uncrashed in-memory path the recovered run
	// must be indistinguishable from.
	sv0 := New(Config{Shards: 2})
	t.Cleanup(func() { sv0.Close() })
	twin, err := sv0.createSession(req)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st := openTestStore(t, StoreConfig{Dir: dir})
	sv1 := New(Config{Shards: 2, Store: st})
	t.Cleanup(func() { sv1.Close() })
	live, err := sv1.createSession(req)
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int64{4096, 4096} {
		u0, d0, err := sv0.stepSession(twin, n)
		if err != nil {
			t.Fatal(err)
		}
		u1, d1, err := sv1.stepSession(live, n)
		if err != nil {
			t.Fatal(err)
		}
		if u0 != u1 || d0 != d1 {
			t.Fatalf("twin diverged mid-run: used %d/%d done %v/%v", u0, u1, d0, d1)
		}
		if d1 {
			t.Fatal("app finished before the mid-episode crash point; grants too large")
		}
	}
	midOps := live.ops()

	liveDig := sessionDigest(t, live)
	if twinDig := sessionDigest(t, twin); twinDig != liveDig {
		t.Fatalf("twin digest %#x != live digest %#x before the crash", twinDig, liveDig)
	}

	// Persist a mid-episode snapshot and restore it in-memory: the
	// recovered world must reproduce both.
	snapID, snap, err := sv1.snapshotSession(live)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := st.writeSnapshot(snapID, snap); err != nil {
		t.Fatalf("persist snapshot: %v", err)
	}
	rs, err := sv1.restoreSnapshot(snapID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := sessionDigest(t, rs); d != liveDig {
		t.Fatalf("in-memory restore digest %#x != live digest %#x", d, liveDig)
	}

	// Crash: abandon sv1 without shutdown and recover the directory
	// with a fresh store and server.
	st2, err := OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sv2 := New(Config{Shards: 2, Store: st2})
	t.Cleanup(func() { sv2.Close() })
	rep, err := sv2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Damaged != 0 || rep.Sessions != 2 || rep.Snapshots != 1 {
		t.Fatalf("recover report %+v, want 2 sessions, 1 snapshot, 0 damaged", rep)
	}
	if rep.ReplayedGrants < 2 {
		t.Fatalf("replayed %d grants, want >= 2", rep.ReplayedGrants)
	}

	rec, ok := sv2.session(live.ID)
	if !ok {
		t.Fatalf("chaos session %s not recovered", live.ID)
	}
	if rec.Harts != req.Harts || !rec.Chaos || rec.g == nil {
		t.Fatalf("recovered session lost its shape: harts=%d chaos=%v app=%v", rec.Harts, rec.Chaos, rec.g != nil)
	}
	if got := rec.ops(); got != midOps {
		t.Fatalf("recovered session at %d ops, crashed server had acked %d", got, midOps)
	}
	if d := sessionDigest(t, rec); d != liveDig {
		t.Fatalf("recovered session digest %#x != pre-crash digest %#x", d, liveDig)
	}
	if rrs, ok := sv2.session(rs.ID); !ok {
		t.Fatalf("restored session %s not recovered", rs.ID)
	} else if d := sessionDigest(t, rrs); d != liveDig {
		t.Fatalf("recovered restored-session digest %#x != pre-crash digest %#x", d, liveDig)
	}
	rs2, err := sv2.restoreSnapshot(snapID, nil)
	if err != nil {
		t.Fatalf("restore from recovered snapshot: %v", err)
	}
	if d := sessionDigest(t, rs2); d != liveDig {
		t.Fatalf("recovered snapshot restores to %#x, want %#x", d, liveDig)
	}

	// Drive twin and recovered session to completion in lockstep.
	for done := false; !done; {
		_, d0, err := sv0.stepSession(twin, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		_, d1, err := sv2.stepSession(rec, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		if d0 != d1 {
			t.Fatalf("twin and recovered session finished out of step: %v vs %v", d0, d1)
		}
		done = d1
	}
	twinRes, terr := twin.result()
	recRes, rerr := rec.result()
	if terr != nil || rerr != nil {
		t.Fatalf("run errors: twin %v, recovered %v", terr, rerr)
	}
	if recRes.Checksum != wantRes.Checksum || twinRes.Checksum != wantRes.Checksum {
		t.Fatalf("checksums: recovered %#x, twin %#x, control %#x",
			recRes.Checksum, twinRes.Checksum, wantRes.Checksum)
	}
	if recRes.Relocated != twinRes.Relocated {
		t.Fatalf("relocated count: recovered %d, twin %d", recRes.Relocated, twinRes.Relocated)
	}

	fm := rec.m
	gotDig, err := oracle.DigestModuloForwarding(fm.Mem, fm.Fwd, fm.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	if gotDig != wantDig {
		t.Fatalf("final digest: recovered %#x, control %#x", gotDig, wantDig)
	}
	if err := oracle.CheckMachine(fm); err != nil {
		t.Fatalf("recovered machine invariants: %v", err)
	}

	// Adversary action counts must match the uncrashed twin exactly —
	// and be non-zero, or the chaos claim is vacuous.
	if rec.stk.Chaos.Relocations != twin.stk.Chaos.Relocations || rec.stk.Chaos.Relocations == 0 {
		t.Fatalf("adversary relocations: recovered %d, twin %d", rec.stk.Chaos.Relocations, twin.stk.Chaos.Relocations)
	}
	recGrp, twinGrp := rec.stk.Group.Stats(), twin.stk.Group.Stats()
	if recGrp.Relocations != twinGrp.Relocations || recGrp.Relocations == 0 {
		t.Fatalf("scheduler relocations: recovered %+v, twin %+v", recGrp, twinGrp)
	}
}
