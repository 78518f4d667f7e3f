package serve

import (
	"testing"

	"memfwd"
	"memfwd/internal/apps/app"
	"memfwd/internal/sim"
)

// TestTieredAppSessionEndToEnd drives an app session on a tiered
// machine with the online migrator enabled, over real HTTP: the run is
// stepped, live-migrated to another shard mid-run (the daemon's policy
// state must survive the machine swap), and stepped to completion. The
// result checksum must equal an undisturbed untiered run — online
// tiering re-decides placement, never what the program computes — and
// the control plane must expose the daemon's accounting on /stats and
// /metrics.
func TestTieredAppSessionEndToEnd(t *testing.T) {
	const seed = 5
	a, ok := memfwd.AppByName("health")
	if !ok {
		t.Fatal("health app not registered")
	}
	baseline := a.Run(sim.New(sim.Config{}), app.Config{Seed: seed, Scale: 1})

	sv := startServer(t, Config{Shards: 2})
	var info sessionInfo
	call(t, sv, "POST", "/sessions", createRequest{Mode: "health", Seed: seed, Tiers: 2}, &info)
	if info.Tiers != 2 {
		t.Fatalf("created %+v, want tiers=2", info)
	}

	step := func(ops int64) stepResponse {
		var resp stepResponse
		call(t, sv, "POST", "/sessions/"+info.ID+"/step", map[string]int64{"ops": ops}, &resp)
		return resp
	}
	type statsResp struct {
		Session sessionInfo `json:"session"`
		Tier    *tierView   `json:"tier"`
	}

	// Run far enough for the migrator to have woken, then check the
	// stats plane sees it.
	if resp := step(150_000); resp.Done {
		t.Fatal("health finished within the first step grant; the mid-run checks below would be vacuous")
	}
	var mid statsResp
	call(t, sv, "GET", "/sessions/"+info.ID+"/stats", nil, &mid)
	if mid.Tier == nil {
		t.Fatal("/stats on a tiered session has no tier section")
	}
	if mid.Tier.Stats.Wakes == 0 {
		t.Fatalf("migrator never woke in 150k ops: %+v", mid.Tier.Stats)
	}

	// Live-migrate mid-run: the daemon and its heat map are host state
	// and must reattach to the swapped-in machine.
	to := (info.Shard + 1) % 2
	call(t, sv, "POST", "/sessions/"+info.ID+"/migrate", map[string]int{"shard": to}, &info)
	if info.Shard != to {
		t.Fatalf("migrated to shard %d, want %d", info.Shard, to)
	}
	mets := sv.MetricsSnapshot()
	if mets["serve.tier.sessions"] != 1 {
		t.Fatalf("serve.tier.sessions = %v, want 1", mets["serve.tier.sessions"])
	}
	if mets["serve.tier.wakes"] == 0 {
		t.Fatal("serve.tier.wakes gauge is zero with a woken migrator")
	}

	var final *stepResult
	for i := 0; i < 10_000 && final == nil; i++ {
		if resp := step(200_000); resp.Done {
			final = resp.Result
		}
	}
	if final == nil {
		t.Fatal("run never finished")
	}
	if final.Err != "" {
		t.Fatalf("run failed: %s", final.Err)
	}
	if final.Checksum != baseline.Checksum {
		t.Fatalf("tiered checksum %#x != untiered baseline %#x: the migrator changed what the program computed",
			final.Checksum, baseline.Checksum)
	}

	var fin statsResp
	call(t, sv, "GET", "/sessions/"+info.ID+"/stats", nil, &fin)
	if fin.Tier == nil || !fin.Session.Done {
		t.Fatalf("final stats %+v", fin.Session)
	}
	if fin.Tier.Stats.Demotions == 0 || fin.Tier.Stats.Placed == 0 {
		t.Fatalf("daemon idle over a full health run: %+v", fin.Tier.Stats)
	}
	if fin.Tier.Stats.Wakes < mid.Tier.Stats.Wakes {
		t.Fatalf("wakes went backwards across migration: %d -> %d", mid.Tier.Stats.Wakes, fin.Tier.Stats.Wakes)
	}

	call(t, sv, "DELETE", "/sessions/"+info.ID, nil, nil)
	if n := sv.MetricsSnapshot()["serve.tier.sessions"]; n != 0 {
		t.Fatalf("serve.tier.sessions = %v after delete, want 0", n)
	}
}

// TestTieredRawSessionAndValidation: a raw session accepts tier
// geometry (the machine's far window is real, latency-wise) but runs no
// daemon, and a tiers=1 request is a client error, not a panic.
func TestTieredRawSessionAndValidation(t *testing.T) {
	sv := startServer(t, Config{Shards: 1})

	if err := callErr(sv, "POST", "/sessions", createRequest{Tiers: 1}, nil); err == nil {
		t.Fatal("tiers=1 accepted; want HTTP 400")
	}

	var info sessionInfo
	call(t, sv, "POST", "/sessions", createRequest{Mode: "raw", Tiers: 3}, &info)
	if info.Tiers != 3 {
		t.Fatalf("created %+v, want tiers=3", info)
	}
	var blk opResult
	call(t, sv, "POST", "/sessions/"+info.ID+"/op", opRequest{Op: "malloc", Size: 64}, &blk)
	call(t, sv, "POST", "/sessions/"+info.ID+"/op",
		opRequest{Op: "store", Addr: blk.Addr, Value: 7}, nil)
	var v opResult
	call(t, sv, "POST", "/sessions/"+info.ID+"/op", opRequest{Op: "load", Addr: blk.Addr}, &v)
	if v.Value != 7 {
		t.Fatalf("load = %d, want 7", v.Value)
	}
	// No daemon: /stats must not grow a tier section.
	var st struct {
		Tier *tierView `json:"tier"`
	}
	call(t, sv, "GET", "/sessions/"+info.ID+"/stats", nil, &st)
	if st.Tier != nil {
		t.Fatalf("raw session exposes a migrator: %+v", st.Tier)
	}
}

// TestRestoreReportsMachineShape: a restored session reports the tiers
// and harts of the machine it restores, whatever the session it came
// from was created with, and so does the same session rebuilt by store
// recovery, which sees only its machine state. A multi-hart app
// snapshot restores as a raw multi-hart machine.
func TestRestoreReportsMachineShape(t *testing.T) {
	st := openTestStore(t, StoreConfig{})
	sv := startServer(t, Config{Shards: 2, Store: st})
	var raw, app sessionInfo
	call(t, sv, "POST", "/sessions", createRequest{Tiers: 2}, &raw)
	call(t, sv, "POST", "/sessions", createRequest{Mode: "health", Harts: 2, Tiers: 3}, &app)
	if raw.Tiers != 2 || app.Tiers != 3 || app.Harts != 2 {
		t.Fatalf("created %+v and %+v", raw, app)
	}
	call(t, sv, "POST", "/sessions/"+app.ID+"/step", map[string]int64{"ops": 20_000}, nil)

	var restored []sessionInfo
	for _, from := range []sessionInfo{raw, app} {
		var snap struct {
			Snapshot string `json:"snapshot"`
		}
		call(t, sv, "POST", "/sessions/"+from.ID+"/snapshot", struct{}{}, &snap)
		var got sessionInfo
		call(t, sv, "POST", "/restore", map[string]string{"snapshot": snap.Snapshot}, &got)
		if got.Mode != "raw" || got.Tiers != from.Tiers || got.Harts != from.Harts {
			t.Fatalf("restore of %+v reports %+v", from, got)
		}
		restored = append(restored, got)
	}

	sv2 := New(Config{Shards: 2, Store: openTestStore(t, StoreConfig{Dir: st.Dir()})})
	t.Cleanup(func() { sv2.Close() })
	if rep, err := sv2.Recover(); err != nil || rep.Damaged != 0 {
		t.Fatalf("recover: %+v, %v", rep, err)
	}
	for _, want := range restored {
		s, ok := sv2.session(want.ID)
		if !ok {
			t.Fatalf("restored session %s not recovered", want.ID)
		}
		if got := sv2.info(s); got.Tiers != want.Tiers || got.Harts != want.Harts {
			t.Fatalf("recovered %+v, want the shape of %+v", got, want)
		}
	}
}
