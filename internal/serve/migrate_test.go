package serve

import (
	"testing"

	"memfwd"
	"memfwd/internal/apps/app"
	"memfwd/internal/oracle"
	"memfwd/internal/sim"
)

// TestSnapshotMigrateMidChaos is the acceptance proof for the session
// server: every benchmark application, run as a served session with the
// chaos relocation adversary attached, is repeatedly suspended
// mid-chaos-episode, snapshotted, restored onto a different shard, and
// migrated between shards — and still finishes with exactly the result,
// heap digest, and adversary statistics of an undisturbed control run
// on a private machine. Migration and snapshotting are therefore
// invisible to both the guest program and the adversary.
func TestSnapshotMigrateMidChaos(t *testing.T) {
	apps := memfwd.Apps()
	if testing.Short() {
		apps = apps[:3] // compress, eqntott, bh
	}
	const (
		shards    = 4
		chaosSeed = 99
		appSeed   = 7
	)
	for _, a := range apps {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()

			// Control: same app, same seeds, same adversary, one
			// machine, no interruptions.
			appCfg := app.Config{Opt: true, Seed: appSeed}
			ctrl := sim.New(sim.Config{})
			crel := oracle.NewRelocator(ctrl, chaosSeed, 0)
			wantRes := a.Run(crel, appCfg)
			ctrl.Finalize()
			wantDig, err := oracle.DigestModuloForwarding(ctrl.Mem, ctrl.Fwd, ctrl.Alloc)
			if err != nil {
				t.Fatalf("control digest: %v", err)
			}

			sv := New(Config{Shards: shards})
			s, err := sv.createSession(createRequest{
				Mode: a.Name, Opt: true, Seed: appSeed,
				Chaos: true, ChaosSeed: chaosSeed,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Step in growing quanta, bouncing the session to a new
			// shard between grants. Growing quanta keep the round count
			// bounded for long apps while guaranteeing short apps still
			// migrate several times.
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
					// Mid-run, mid-chaos-episode: snapshot, restore on
					// yet another shard, and check the restored machine
					// digests identically to the live suspended one.
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
						t.Fatalf("mid-chaos restore digest %#x != live digest %#x", restDig, liveDig)
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
			if gotRes != wantRes {
				t.Errorf("result diverged:\n  served  %+v\n  control %+v", gotRes, wantRes)
			}
			if migrations < 3 {
				t.Errorf("only %d migrations; app too short for the proof", migrations)
			}

			fm := s.m // runner already finalized it on the way out
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

			// The adversary itself must not have noticed: identical
			// action counts mean the chaos episode replayed exactly.
			if s.stk.Chaos.Relocations != crel.Relocations ||
				s.stk.Chaos.Lengthenings != crel.Lengthenings ||
				s.stk.Chaos.Probes != crel.Probes ||
				s.stk.Chaos.CyclicProbes != crel.CyclicProbes {
				t.Errorf("adversary stats diverged:\n  served  reloc=%d length=%d probes=%d cyclic=%d\n  control reloc=%d length=%d probes=%d cyclic=%d",
					s.stk.Chaos.Relocations, s.stk.Chaos.Lengthenings, s.stk.Chaos.Probes, s.stk.Chaos.CyclicProbes,
					crel.Relocations, crel.Lengthenings, crel.Probes, crel.CyclicProbes)
			}
			if s.stk.Chaos.Relocations == 0 {
				t.Error("adversary performed no relocations; proof is vacuous")
			}

			if err := sv.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMigrateAllocatesNothing pins what a migration costs: the session
// keeps its machine, so re-homing a memory-only raw session with a
// populated heap allocates nothing.
func TestMigrateAllocatesNothing(t *testing.T) {
	sv := New(Config{Shards: 2})
	s, err := sv.createSession(createRequest{})
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	res, err := sv.execOps(s, []opRequest{{Op: "malloc", Size: 4096}}, nil)
	if err == nil {
		_, err = sv.execOps(s, []opRequest{{Op: "relocate", Addr: res[0].Addr}}, nil)
	}
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	to := 0
	if n := testing.AllocsPerRun(100, func() {
		to ^= 1
		if err := sv.migrateSession(s, to); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("migrateSession: %v allocs per run, want 0", n)
	}
}
