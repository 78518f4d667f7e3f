package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startServer boots a server on a free port and tears it down with the
// test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	sv := New(cfg)
	if err := sv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sv.Close() })
	return sv
}

// call posts body to path and decodes the JSON reply into out,
// failing the test on a non-200 status.
func call(t *testing.T, sv *Server, method, path string, body, out any) {
	t.Helper()
	if err := callErr(sv, method, path, body, out); err != nil {
		t.Fatal(err)
	}
}

func callErr(sv *Server, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, "http://"+sv.Addr()+path, rd)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// TestRawSessionEndToEnd drives the whole raw-session lifecycle over
// real HTTP: guest operations, relocation through the production
// two-phase commit, snapshot, restore onto a different shard, digest
// equality across the restore, and reads through the forwarding chain
// on the restored machine.
func TestRawSessionEndToEnd(t *testing.T) {
	sv := startServer(t, Config{Shards: 4})

	shard := 0
	var info sessionInfo
	call(t, sv, "POST", "/sessions", createRequest{Mode: "raw", Shard: &shard}, &info)
	if info.Shard != 0 || info.Mode != "raw" {
		t.Fatalf("created %+v", info)
	}

	var blk opResult
	call(t, sv, "POST", "/sessions/"+info.ID+"/op", opRequest{Op: "malloc", Size: 64}, &blk)
	if blk.Addr == 0 {
		t.Fatal("malloc returned 0")
	}
	for i := 0; i < 8; i++ {
		call(t, sv, "POST", "/sessions/"+info.ID+"/op",
			opRequest{Op: "store", Addr: blk.Addr + uint64(i*8), Value: 0xA0 + uint64(i)}, nil)
	}
	var rel opResult
	call(t, sv, "POST", "/sessions/"+info.ID+"/op", opRequest{Op: "relocate", Addr: blk.Addr}, &rel)
	if rel.Target < uint64(shardArenaBase(0)) || rel.Target >= uint64(shardArenaBase(1)) {
		t.Fatalf("relocation target %#x not in shard 0's arena region", rel.Target)
	}
	var fb opResult
	call(t, sv, "POST", "/sessions/"+info.ID+"/op", opRequest{Op: "fbit", Addr: blk.Addr}, &fb)
	if !fb.FBit {
		t.Fatal("source word does not forward after relocate")
	}

	var preDig opResult
	call(t, sv, "POST", "/sessions/"+info.ID+"/op", opRequest{Op: "digest"}, &preDig)

	var snapped struct {
		Snapshot string `json:"snapshot"`
	}
	call(t, sv, "POST", "/sessions/"+info.ID+"/snapshot", struct{}{}, &snapped)
	restoreShard := 2
	var restored sessionInfo
	call(t, sv, "POST", "/restore", map[string]any{"snapshot": snapped.Snapshot, "shard": restoreShard}, &restored)
	if restored.Shard != 2 {
		t.Fatalf("restored onto shard %d, want 2", restored.Shard)
	}

	var postDig opResult
	call(t, sv, "POST", "/sessions/"+restored.ID+"/op", opRequest{Op: "digest"}, &postDig)
	if postDig.Value != preDig.Value {
		t.Fatalf("digest diverged across restore: %#x -> %#x", preDig.Value, postDig.Value)
	}
	// The forwarding chain planted before the snapshot must still
	// resolve on the restored machine.
	var v opResult
	call(t, sv, "POST", "/sessions/"+restored.ID+"/op", opRequest{Op: "load", Addr: blk.Addr + 24}, &v)
	if v.Value != 0xA3 {
		t.Fatalf("load through restored chain = %#x, want 0xA3", v.Value)
	}
	// New relocations on the restored session land in its new shard's
	// arena region.
	var blk2, rel2 opResult
	call(t, sv, "POST", "/sessions/"+restored.ID+"/op", opRequest{Op: "malloc", Size: 32}, &blk2)
	call(t, sv, "POST", "/sessions/"+restored.ID+"/op", opRequest{Op: "relocate", Addr: blk2.Addr}, &rel2)
	if rel2.Target < uint64(shardArenaBase(restoreShard)) || rel2.Target >= uint64(shardArenaBase(restoreShard+1)) {
		t.Fatalf("post-restore relocation target %#x not in shard %d's region", rel2.Target, restoreShard)
	}

	call(t, sv, "DELETE", "/sessions/"+info.ID, nil, nil)
	call(t, sv, "DELETE", "/sessions/"+restored.ID, nil, nil)
	if err := callErr(sv, "POST", "/sessions/"+info.ID+"/op", opRequest{Op: "digest"}, nil); err == nil {
		t.Fatal("op on a deleted session succeeded")
	}
}

// TestRawOpValidation: guest-level mistakes come back as HTTP errors,
// never server panics.
func TestRawOpValidation(t *testing.T) {
	sv := startServer(t, Config{Shards: 1})
	var info sessionInfo
	call(t, sv, "POST", "/sessions", createRequest{}, &info)
	for _, bad := range []opRequest{
		{Op: "free", Addr: 0x1234},               // non-live block
		{Op: "relocate", Addr: 0x1234},           // non-live block
		{Op: "load", Addr: 0x1000_0001},          // misaligned word access
		{Op: "nonsense"},                         // unknown op
		{Op: "malloc"},                           // missing size
		{Op: "load", Addr: 0x1000_0000, Size: 3}, // bad access size
	} {
		if err := callErr(sv, "POST", "/sessions/"+info.ID+"/op", bad, nil); err == nil {
			t.Errorf("op %+v succeeded, want error", bad)
		}
	}
	// The session survives all of the above.
	var res opResult
	call(t, sv, "POST", "/sessions/"+info.ID+"/op", opRequest{Op: "malloc", Size: 64}, &res)
	if res.Addr == 0 {
		t.Fatal("session unusable after rejected ops")
	}
}

// TestCreateBoundsAgentIntervals: the chaos, tier and scheduler
// intervals are client input that each agent doubles into a draw
// range, so one past agent.MaxEvery must fail the create cleanly (a 400
// over HTTP), before any wrapper is built or hart goroutine started.
func TestCreateBoundsAgentIntervals(t *testing.T) {
	sv := New(Config{Shards: 1})
	const huge = 1 << 62
	for _, harts := range []int{0, 4} {
		for _, req := range []createRequest{
			{Mode: "health", Harts: harts, Chaos: true, ChaosInterval: huge},
			{Mode: "health", Harts: harts, Tiers: 2, MigrateEvery: huge},
			{Mode: "health", Harts: harts, SchedInterval: huge},
		} {
			before := runtime.NumGoroutine()
			if _, err := sv.createSession(req); err == nil {
				t.Errorf("create %+v succeeded, want error", req)
			}
			if after := runtime.NumGoroutine(); after != before {
				t.Errorf("create %+v: %d goroutines, want %d", req, after, before)
			}
		}
	}
}

// TestAppSessionStepEventsAndStats runs a benchmark application as a
// stepped session with the chaos adversary attached, streams its live
// events over /events, hammers /stats (which quiesces the runner)
// while stepping, and checks the final result arrives exactly once.
func TestAppSessionStepEventsAndStats(t *testing.T) {
	sv := startServer(t, Config{Shards: 2})
	var info sessionInfo
	call(t, sv, "POST", "/sessions", createRequest{Mode: "mst", Seed: 3, Chaos: true, ChaosSeed: 11}, &info)

	// Stream events concurrently; count NDJSON lines until the hub
	// closes at session deletion.
	lines := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + sv.Addr() + "/sessions/" + info.ID + "/events")
		if err != nil {
			lines <- -1
			return
		}
		defer resp.Body.Close()
		n := 0
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var ev map[string]any
			if json.Unmarshal(sc.Bytes(), &ev) != nil {
				lines <- -1
				return
			}
			n++
		}
		lines <- n
	}()
	time.Sleep(10 * time.Millisecond) // let the subscriber attach

	var stepsDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stepsDone.Load() {
			if err := callErr(sv, "GET", "/sessions/"+info.ID+"/stats", nil, nil); err != nil {
				t.Errorf("stats during step: %v", err)
				return
			}
		}
	}()

	var final *stepResult
	for i := 0; i < 10_000; i++ {
		var resp stepResponse
		call(t, sv, "POST", "/sessions/"+info.ID+"/step", map[string]int64{"ops": 20_000}, &resp)
		if resp.Done {
			final = resp.Result
			break
		}
	}
	stepsDone.Store(true)
	wg.Wait()
	if final == nil {
		t.Fatal("run never finished")
	}
	if final.Err != "" {
		t.Fatalf("run failed: %s", final.Err)
	}
	if final.Checksum == 0 {
		t.Fatal("run produced zero checksum")
	}

	var stats struct {
		Session sessionInfo `json:"session"`
		Digest  string      `json:"digest"`
	}
	call(t, sv, "GET", "/sessions/"+info.ID+"/stats", nil, &stats)
	if !stats.Session.Done || stats.Digest == "" || stats.Digest == "0x0" {
		t.Fatalf("final stats %+v", stats)
	}

	call(t, sv, "DELETE", "/sessions/"+info.ID, nil, nil)
	select {
	case n := <-lines:
		if n <= 0 {
			t.Fatalf("event stream delivered %d lines", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event stream did not end after session deletion")
	}
}

// TestMetricsScrubbed pins the satellite-4 guarantee for the serve
// plane: every computed gauge is finite even when every denominator
// (sessions created, events, shards' work) is zero, and the /metrics
// endpoint always serves decodable JSON.
func TestMetricsScrubbed(t *testing.T) {
	sv := startServer(t, Config{Shards: 3})
	mets := sv.MetricsSnapshot()
	for k, v := range mets {
		if v != scrub(v) {
			t.Errorf("fresh-server metric %s = %v, want finite", k, v)
		}
	}
	for _, k := range []string{"serve.ops_per_session", "serve.events.drop_fraction"} {
		if v, ok := mets[k]; !ok || v != 0 {
			t.Errorf("%s = %v (present=%v), want 0 with zero denominators", k, v, ok)
		}
	}
	var out struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	call(t, sv, "GET", "/metrics", nil, &out)
	if len(out.Metrics) != len(mets) {
		t.Fatalf("/metrics served %d gauges, want %d", len(out.Metrics), len(mets))
	}
}

// TestGate exercises the budget gate's contract directly: grants are
// consumed exactly, pause parks at an operation boundary, kill unwinds
// a parked runner.
func TestGate(t *testing.T) {
	g := newGate()
	var count atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer g.finish()
		defer func() { recover() }() //nolint:errcheck // killed unwind
		for {
			g.tick()
			count.Add(1)
		}
	}()

	used, doneFlag := g.step(10)
	if used != 10 || doneFlag {
		t.Fatalf("step(10): used=%d done=%v", used, doneFlag)
	}
	g.pause() // parks the runner inside its next tick: count is now stable
	if count.Load() != 10 {
		t.Fatalf("count=%d after step(10)+pause, want 10", count.Load())
	}
	g.mu.Lock()
	g.budget += 100 // grant budget while paused: runner must stay parked
	g.cond.Broadcast()
	g.mu.Unlock()
	time.Sleep(5 * time.Millisecond)
	if count.Load() != 10 {
		t.Fatal("runner advanced while paused")
	}
	g.resume()
	used, _ = g.drain() // wait out the 100-op grant
	if used != 110 {
		t.Fatalf("after resume used=%d, want 110", used)
	}
	g.pause()
	if count.Load() != 110 {
		t.Fatalf("count=%d after grant drained, want 110", count.Load())
	}
	g.resume()
	g.kill()
	<-done
	if !g.finished() {
		t.Fatal("killed runner not finished")
	}
}

// Satellite regression: a non-positive grant must not block on budget
// granted by an earlier step. Before the guard, step(n<=0) added
// nothing to the budget but still sat in the wait loop until the
// pending grant drained — with a parked runner, forever.
func TestGateStepNonPositiveReturnsImmediately(t *testing.T) {
	g := newGate()
	g.mu.Lock()
	g.budget = 7 // pending grant from an earlier step; nobody consuming
	g.used = 3
	g.mu.Unlock()
	type res struct {
		used int64
		done bool
	}
	got := make(chan res, 2)
	for _, n := range []int64{0, -4} {
		go func(n int64) {
			used, done := g.step(n)
			got <- res{used, done}
		}(n)
	}
	for i := 0; i < 2; i++ {
		select {
		case r := <-got:
			if r.used != 3 || r.done {
				t.Fatalf("step(<=0) = %+v, want used=3 done=false", r)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("step with non-positive grant blocked on earlier budget")
		}
	}
}

// Race test: a kill during a blocked step must wake the waiter with
// done=true promptly, not leave it hung on budget that will never be
// consumed.
func TestGateKillWakesBlockedStep(t *testing.T) {
	g := newGate()
	started := make(chan struct{})
	go func() {
		defer g.finish()
		defer func() { recover() }() //nolint:errcheck // killed unwind
		close(started)
		for {
			g.tick()
		}
	}()
	<-started
	g.pause() // park the runner so the grant below is never consumed

	type res struct {
		used int64
		done bool
	}
	got := make(chan res, 1)
	go func() {
		used, done := g.step(100)
		got <- res{used, done}
	}()
	time.Sleep(5 * time.Millisecond) // let the step enter its wait
	g.kill()
	select {
	case r := <-got:
		if !r.done {
			t.Fatalf("blocked step woke with done=%v, want true", r.done)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("kill did not wake the blocked step")
	}
}

// TestStepHTTPRejectsNonPositive: the HTTP layer 400s non-positive
// grants before they reach the gate.
func TestStepHTTPRejectsNonPositive(t *testing.T) {
	sv := startServer(t, Config{Shards: 1})
	var info sessionInfo
	call(t, sv, "POST", "/sessions", createRequest{Mode: "mst", Seed: 3}, &info)
	for _, ops := range []int64{0, -1} {
		err := callErr(sv, "POST", "/sessions/"+info.ID+"/step", map[string]int64{"ops": ops}, nil)
		if err == nil || !strings.Contains(err.Error(), "400") {
			t.Fatalf("step ops=%d: err=%v, want 400", ops, err)
		}
	}
	call(t, sv, "DELETE", "/sessions/"+info.ID, nil, nil)
}

// TestDeleteWakesBlockedStep drives the kill-during-step race over
// real HTTP: a step holding a grant far larger than the run consumes
// quickly is interrupted by session deletion and must return promptly.
func TestDeleteWakesBlockedStep(t *testing.T) {
	sv := startServer(t, Config{Shards: 1})
	var info sessionInfo
	call(t, sv, "POST", "/sessions", createRequest{Mode: "mst", Seed: 3}, &info)
	done := make(chan error, 1)
	go func() {
		var resp stepResponse
		done <- callErr(sv, "POST", "/sessions/"+info.ID+"/step",
			map[string]int64{"ops": 1 << 40}, &resp)
	}()
	time.Sleep(20 * time.Millisecond)
	call(t, sv, "DELETE", "/sessions/"+info.ID, nil, nil)
	select {
	case err := <-done:
		// Either a clean done=true response or the handler observed the
		// session vanish; hanging is the failure mode.
		_ = err
	case <-time.After(5 * time.Second):
		t.Fatal("step did not return after session deletion")
	}
}

// TestSelftestSmall runs the full load harness (reference runs, real
// HTTP, concurrent sessions, snapshot/restore and migrate paths, bleed
// checks) at a size fit for CI. The -race leg of CI runs this too.
func TestSelftestSmall(t *testing.T) {
	cfg := SelftestConfig{Sessions: 64, Shards: 4, Workers: 16, Ops: 96}
	if testing.Short() {
		cfg.Sessions = 24
	}
	if err := Selftest(cfg, t.Logf); err != nil {
		t.Fatal(err)
	}
}
