package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"memfwd/internal/fault"
)

// TestTransientExhaustionDropsDurability: a disk that stays transiently
// broken past the retry budget must not wedge the session — it drops to
// memory-only, its stale artifacts are removed (a later recovery must
// not resurrect a state that silently lost acked operations), and the
// shard takes enough strikes to be quarantined out of new placements.
func TestTransientExhaustionDropsDurability(t *testing.T) {
	st := openTestStore(t, StoreConfig{Retries: 1})
	st.SetDiskInjector(fault.NewDisk(3).
		Arm(fault.DiskShort, fault.DiskWALAppend, 1).
		Arm(fault.DiskShort, fault.DiskWALAppend, 2))
	sv := New(Config{Shards: 2, Store: st, QuarantineAfter: 1})
	shard0 := 0
	s, err := sv.createSession(createRequest{Mode: "raw", Shard: &shard0})
	if err != nil {
		t.Fatal(err)
	}

	s.mu.Lock()
	results, err := sv.execOps(s, []opRequest{{Op: "malloc", Size: 64}}, nil)
	logDropped := s.log == nil
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("op should survive losing durability: %v", err)
	}
	if len(results) != 1 || results[0].Addr == 0 {
		t.Fatalf("malloc result %+v", results)
	}
	if !logDropped {
		t.Fatal("session kept its WAL after retry exhaustion")
	}
	if got := sv.durabilityLost.Load(); got != 1 {
		t.Fatalf("durabilityLost %d, want 1", got)
	}
	if st.Dead() {
		t.Fatal("transient exhaustion latched the store dead")
	}
	if _, serr := os.Stat(st.sessionDir(s.ID)); !os.IsNotExist(serr) {
		t.Fatalf("stale session dir still on disk (stat err %v)", serr)
	}
	if !sv.shards[0].quarantined.Load() {
		t.Fatal("shard not quarantined after the strike")
	}

	// Placement: pinning to the quarantined shard is refused, while
	// round-robin routes around it.
	if _, err := sv.createSession(createRequest{Mode: "raw", Shard: &shard0}); err == nil {
		t.Fatal("create pinned to a quarantined shard succeeded")
	}
	for i := 0; i < 3; i++ {
		s2, err := sv.createSession(createRequest{Mode: "raw"})
		if err != nil {
			t.Fatalf("round-robin create %d: %v", i, err)
		}
		if got := int(s2.shard.Load()); got != 1 {
			t.Fatalf("round-robin landed on quarantined shard %d", got)
		}
	}

	// The degraded session keeps serving memory-only.
	s.mu.Lock()
	_, err = sv.execOps(s, []opRequest{{Op: "malloc", Size: 32}}, nil)
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("memory-only session refused work: %v", err)
	}

	m := sv.MetricsSnapshot()
	if m["serve.durability_lost"] != 1 || m["serve.shards.quarantined"] != 1 {
		t.Fatalf("metrics: durability_lost=%v quarantined=%v",
			m["serve.durability_lost"], m["serve.shards.quarantined"])
	}
}

// TestLoadSheddingSheds429: per-shard admission control rejects excess
// inflight requests with 429 + Retry-After instead of queueing without
// bound, and recovers as soon as slots free up.
func TestLoadSheddingSheds429(t *testing.T) {
	sv := New(Config{Shards: 1, MaxInflight: 1})
	s, err := sv.createSession(createRequest{Mode: "raw"})
	if err != nil {
		t.Fatal(err)
	}

	release, ok := sv.admit(httptest.NewRecorder(), s)
	if !ok {
		t.Fatal("first request shed at inflight=0")
	}
	rec := httptest.NewRecorder()
	if _, ok := sv.admit(rec, s); ok {
		t.Fatal("second request admitted past MaxInflight=1")
	}
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("shed status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", got)
	}
	if sv.shedCount.Load() != 1 || sv.shards[0].shed.Load() != 1 {
		t.Fatalf("shed counters: server %d, shard %d", sv.shedCount.Load(), sv.shards[0].shed.Load())
	}

	release()
	release2, ok := sv.admit(httptest.NewRecorder(), s)
	if !ok {
		t.Fatal("request shed after the slot was released")
	}
	release2()

	if m := sv.MetricsSnapshot(); m["serve.shed"] != 1 {
		t.Fatalf("serve.shed metric %v, want 1", m["serve.shed"])
	}
}

// TestOversizeBodyRejected: a request body past the 1 MiB cap comes
// back as a clean 413, not a hung read or a 500.
func TestOversizeBodyRejected(t *testing.T) {
	sv := startServer(t, Config{Shards: 1})
	body := `{"mode":"` + strings.Repeat("a", (1<<20)+512) + `"}`
	resp, err := http.Post("http://"+sv.Addr()+"/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestStorageFailureOnCreateAnswers503: when the store cannot persist
// a new session, create and /restore answer 503 with the storage error,
// as /op answers a storage failure, not the 400 of a bad request. Each
// failure strikes the shard once and creates no session. Bad requests
// still answer 400.
func TestStorageFailureOnCreateAnswers503(t *testing.T) {
	st := openTestStore(t, StoreConfig{Retries: 1})
	sv := New(Config{Shards: 2, Store: st})
	post := func(h http.HandlerFunc, body, id string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest("POST", "/", strings.NewReader(body))
		r.SetPathValue("id", id)
		h(rec, r)
		return rec
	}
	rec := post(sv.handleCreate, `{"mode":"raw","shard":0}`, "")
	var info sessionInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	if rec := post(sv.handleSnapshot, `{}`, info.ID); rec.Code != http.StatusOK {
		t.Fatalf("snapshot: %d %s", rec.Code, rec.Body)
	}

	for _, tc := range []struct {
		name string
		h    http.HandlerFunc
		body string
	}{
		{"create", sv.handleCreate, `{"mode":"raw","shard":0}`},
		{"restore", sv.handleRestore, `{"snapshot":"snap-1","shard":0}`},
	} {
		// Both attempts at the new session's meta write come up short.
		st.SetDiskInjector(fault.NewDisk(1).
			Arm(fault.DiskShort, fault.DiskSnapWrite, 1).
			Arm(fault.DiskShort, fault.DiskSnapWrite, 2))
		created, strikes := sv.MetricsSnapshot()["serve.sessions.created"], sv.shards[0].strikes.Load()
		rec := post(tc.h, tc.body, "")
		if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "storage: persist session") {
			t.Errorf("%s on a failing store: %d %s, want 503 storage", tc.name, rec.Code, rec.Body)
		}
		if got := sv.shards[0].strikes.Load(); got != strikes+1 {
			t.Errorf("%s: shard strikes %d -> %d, want one strike", tc.name, strikes, got)
		}
		if got := sv.MetricsSnapshot()["serve.sessions.created"]; got != created {
			t.Errorf("%s: serve.sessions.created %v -> %v", tc.name, created, got)
		}
	}

	st.SetDiskInjector(nil)
	for _, tc := range []struct {
		name string
		h    http.HandlerFunc
		body string
	}{
		{"bad shard", sv.handleCreate, `{"mode":"raw","shard":7}`},
		{"bad config", sv.handleCreate, `{"mode":"raw","tiers":1}`},
		{"unknown snapshot", sv.handleRestore, `{"snapshot":"snap-9"}`},
		{"restore to a bad shard", sv.handleRestore, `{"snapshot":"snap-1","shard":7}`},
	} {
		if rec := post(tc.h, tc.body, ""); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", tc.name, rec.Code, rec.Body)
		}
	}
}

// TestSnapshotHeldBytes: serve.snapshots.held_bytes sums the frozen
// pages and words of every held snapshot, and a server that recovers
// the snapshots from disk reports the same sum.
func TestSnapshotHeldBytes(t *testing.T) {
	st := openTestStore(t, StoreConfig{})
	sv := startServer(t, Config{Shards: 2, Store: st})
	var info sessionInfo
	call(t, sv, "POST", "/sessions", createRequest{}, &info)
	for i := 0; i < 16; i++ {
		var blk opResult
		call(t, sv, "POST", "/sessions/"+info.ID+"/op", opRequest{Op: "malloc", Size: 64}, &blk)
		call(t, sv, "POST", "/sessions/"+info.ID+"/op", opRequest{Ops: []opRequest{
			{Op: "store", Addr: blk.Addr, Value: uint64(i) + 1},
			{Op: "relocate", Addr: blk.Addr},
		}}, nil)
	}
	if got := sv.MetricsSnapshot()["serve.snapshots.held_bytes"]; got != 0 {
		t.Fatalf("held_bytes %v with no snapshot", got)
	}
	want := 0
	for i := 0; i < 2; i++ {
		var snap struct {
			Snapshot string `json:"snapshot"`
		}
		call(t, sv, "POST", "/sessions/"+info.ID+"/snapshot", struct{}{}, &snap)
		sv.mu.Lock()
		want += sv.snaps[snap.Snapshot].st.MemoryBytes()
		sv.mu.Unlock()
	}
	if got := sv.MetricsSnapshot()["serve.snapshots.held_bytes"]; want == 0 || got != float64(want) {
		t.Fatalf("held_bytes %v, want %d", got, want)
	}

	sv2 := New(Config{Shards: 2, Store: openTestStore(t, StoreConfig{Dir: st.Dir()})})
	t.Cleanup(func() { sv2.Close() })
	if rep, err := sv2.Recover(); err != nil || rep.Snapshots != 2 {
		t.Fatalf("recover: %+v, %v", rep, err)
	}
	if got := sv2.MetricsSnapshot()["serve.snapshots.held_bytes"]; got != float64(want) {
		t.Fatalf("recovered held_bytes %v, want %d", got, want)
	}
}
