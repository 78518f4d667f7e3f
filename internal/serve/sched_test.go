package serve

import (
	"fmt"
	"testing"

	"memfwd"
	"memfwd/internal/apps/app"
	"memfwd/internal/oracle"
	"memfwd/internal/sim"
)

// TestMultiHartSessionMigrateMidChaos is the served form of the
// concurrency contract: an application session whose machine runs
// relocator harts against the guest (with the chaos adversary attached
// on top) is repeatedly suspended, live-migrated between shards, and
// snapshotted mid-run — and still finishes with the checksum and heap
// digest of a plain single-hart run on a private machine. Every layer
// of interference (concurrent relocation jobs, adversary episodes,
// live migration, the snapshot's quiesce) must be invisible to the
// guest.
func TestMultiHartSessionMigrateMidChaos(t *testing.T) {
	const (
		shards    = 4
		chaosSeed = 99
		appSeed   = 7
	)
	cases := []struct {
		app   string
		harts int
	}{
		{"health", 2},
		{"health", 4},
		{"compress", 2},
		{"mst", 4},
	}
	if testing.Short() {
		cases = cases[1:2] // the highest-contention cell: health at harts=4
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s/harts=%d", tc.app, tc.harts), func(t *testing.T) {
			t.Parallel()
			a, ok := memfwd.AppByName(tc.app)
			if !ok {
				t.Fatalf("unknown app %q", tc.app)
			}

			// Control: plain machine, no harts, no chaos, no server. The
			// group and the adversary must both be functionally invisible,
			// so the strongest reference is the least decorated one.
			appCfg := app.Config{Opt: true, Seed: appSeed}
			ctrl := sim.New(sim.Config{})
			wantRes := a.Run(ctrl, appCfg)
			ctrl.Finalize()
			wantDig, err := oracle.DigestModuloForwarding(ctrl.Mem, ctrl.Fwd, ctrl.Alloc)
			if err != nil {
				t.Fatalf("control digest: %v", err)
			}

			sv := New(Config{Shards: shards})
			s, err := sv.createSession(createRequest{
				Mode: a.Name, Opt: true, Seed: appSeed,
				Chaos: true, ChaosSeed: chaosSeed,
				Harts: tc.harts, SchedSeed: 5, SchedInterval: 8,
			})
			if err != nil {
				t.Fatal(err)
			}

			var (
				quantum    int64 = 1024
				migrations int
				done       bool
			)
			for !done {
				_, done = s.g.step(quantum)
				if done {
					break
				}
				next := (int(s.shard.Load()) + 1) % shards
				if err := sv.migrateSession(s, next); err != nil {
					t.Fatalf("migration %d: %v", migrations, err)
				}
				migrations++
				if migrations == 3 {
					// Mid-run: snapshot (which quiesces in-flight jobs),
					// restore on another shard, and check the restored
					// machine digests identically to the live one.
					liveDig, err := func() (uint64, error) {
						s.mu.Lock()
						defer s.mu.Unlock()
						return s.digest()
					}()
					if err != nil {
						t.Fatalf("live digest: %v", err)
					}
					snapID, _, err := sv.snapshotSession(s)
					if err != nil {
						t.Fatalf("snapshot: %v", err)
					}
					restoreShard := (next + 2) % shards
					rs, err := sv.restoreSnapshot(snapID, &restoreShard)
					if err != nil {
						t.Fatalf("restore: %v", err)
					}
					rs.mu.Lock()
					restDig, err := rs.digest()
					rs.mu.Unlock()
					if err != nil {
						t.Fatalf("restored digest: %v", err)
					}
					if restDig != liveDig {
						t.Fatalf("mid-run restore digest %#x != live digest %#x", restDig, liveDig)
					}
					if !sv.deleteSession(rs.ID) {
						t.Fatal("restored session vanished")
					}
				}
				if quantum < 1<<20 {
					quantum *= 2
				}
			}

			gotRes, runErr := s.result()
			if runErr != nil {
				t.Fatalf("served run: %v", runErr)
			}
			if gotRes.Checksum != wantRes.Checksum {
				t.Errorf("checksum diverged: served %#x, control %#x", gotRes.Checksum, wantRes.Checksum)
			}
			if migrations < 3 {
				t.Errorf("only %d migrations; app too short for the proof", migrations)
			}

			fm := s.m
			gotDig, err := oracle.DigestModuloForwarding(fm.Mem, fm.Fwd, fm.Alloc)
			if err != nil {
				t.Fatalf("served digest: %v", err)
			}
			if gotDig != wantDig {
				t.Errorf("digest diverged: served %#x, control %#x", gotDig, wantDig)
			}
			if err := oracle.CheckMachine(fm); err != nil {
				t.Errorf("served machine invariants: %v", err)
			}

			// Both interference sources must actually have run, or the
			// proof is vacuous.
			if st := s.stk.Group.Stats(); st.Relocations == 0 {
				t.Errorf("scheduling group committed no relocations: %+v", st)
			}
			if s.stk.Chaos.Relocations == 0 {
				t.Error("adversary performed no relocations")
			}

			if err := sv.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMultiHartSessionValidation: hart-count validation happens at
// session creation and surfaces as HTTP 400, never as a server panic.
func TestMultiHartSessionValidation(t *testing.T) {
	sv := startServer(t, Config{Shards: 1})

	if err := callErr(sv, "POST", "/sessions", createRequest{Mode: "health", Harts: -1}, nil); err == nil {
		t.Fatal("harts=-1 accepted; want HTTP 400")
	}
	if err := callErr(sv, "POST", "/sessions",
		createRequest{Mode: "health", Harts: sim.MaxHarts + 1}, nil); err == nil {
		t.Fatalf("harts=%d accepted; want HTTP 400", sim.MaxHarts+1)
	}
	if err := callErr(sv, "POST", "/sessions", createRequest{Mode: "raw", Harts: 2}, nil); err == nil {
		t.Fatal("raw session with harts=2 accepted; want HTTP 400")
	}

	var info sessionInfo
	call(t, sv, "POST", "/sessions",
		createRequest{Mode: "health", Opt: true, Harts: 2, SchedSeed: 3}, &info)
	if info.Harts != 2 {
		t.Fatalf("created %+v, want harts=2", info)
	}
	var step struct {
		Done bool `json:"done"`
	}
	for !step.Done {
		call(t, sv, "POST", "/sessions/"+info.ID+"/step", map[string]int64{"ops": 1 << 20}, &step)
	}
}
