package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var updateCatalog = flag.Bool("update-catalog", false,
	"rewrite testdata/metrics-catalog.golden from the current server")

// metricCatalog is the golden of TestMetricCatalog: the sorted /metrics
// names of a memory-only and of a store-backed server after the same
// scenario, plus the scenario's deterministic counts.
type metricCatalog struct {
	Memory []string           `json:"memory"`
	Store  []string           `json:"store"`
	Counts map[string]float64 `json:"counts"`
}

// catalogCounts names the metrics whose values the catalog scenario
// fixes exactly, whatever the timing.
var catalogCounts = []string{
	"serve.shards",
	"serve.sessions.active",
	"serve.sessions.created",
	"serve.sessions.closed",
	"serve.migrations",
	"serve.snapshots",
	"serve.restores",
	"serve.tier.sessions",
	"serve.shard.0.active",
	"serve.shard.0.created",
	"serve.shard.0.migrated_in",
	"serve.shard.0.migrated_out",
	"serve.shard.1.active",
	"serve.shard.1.created",
	"serve.shard.1.migrated_in",
	"serve.shard.1.migrated_out",
	"serve.shed",
	"serve.durability_lost",
	"serve.shards.quarantined",
}

// catalogScenario drives a 2-shard server through one of everything
// /metrics reports on: a raw session with a relocation, a live
// migration, a snapshot restored onto the other shard and then
// deleted, and a tiered app session stepped to done.
func catalogScenario(t *testing.T, sv *Server) {
	t.Helper()
	shard := 0
	var raw sessionInfo
	call(t, sv, "POST", "/sessions", createRequest{Mode: "raw", Shard: &shard}, &raw)
	var blk opResult
	call(t, sv, "POST", "/sessions/"+raw.ID+"/op", opRequest{Op: "malloc", Size: 64}, &blk)
	call(t, sv, "POST", "/sessions/"+raw.ID+"/op", opRequest{Ops: []opRequest{
		{Op: "store", Addr: blk.Addr, Value: 7},
		{Op: "store", Addr: blk.Addr + 8, Value: 8},
		{Op: "relocate", Addr: blk.Addr},
		{Op: "load", Addr: blk.Addr + 8},
	}}, nil)
	call(t, sv, "POST", "/sessions/"+raw.ID+"/migrate", map[string]int{"shard": 1}, nil)

	var snap struct {
		Snapshot string `json:"snapshot"`
	}
	call(t, sv, "POST", "/sessions/"+raw.ID+"/snapshot", struct{}{}, &snap)
	var restored sessionInfo
	call(t, sv, "POST", "/restore", map[string]any{"snapshot": snap.Snapshot, "shard": 0}, &restored)
	call(t, sv, "DELETE", "/sessions/"+restored.ID, nil, nil)

	var app sessionInfo
	call(t, sv, "POST", "/sessions", createRequest{Mode: "mst", Tiers: 2, Shard: &shard}, &app)
	for done := false; !done; {
		var resp stepResponse
		call(t, sv, "POST", "/sessions/"+app.ID+"/step", map[string]int64{"ops": 1 << 20}, &resp)
		done = resp.Done
		if done && resp.Result.Err != "" {
			t.Fatalf("app session failed: %s", resp.Result.Err)
		}
	}
}

// TestMetricCatalog pins the session server's metric catalog: the
// names /metrics serves, the same names through MetricsSnapshot, every
// value finite, and the counts the scenario determines. Run with
// -update-catalog to re-record the golden after an intended change.
func TestMetricCatalog(t *testing.T) {
	scrape := func(sv *Server) ([]string, map[string]float64) {
		var doc struct {
			Metrics map[string]float64 `json:"metrics"`
		}
		call(t, sv, "GET", "/metrics", nil, &doc)
		snap := sv.MetricsSnapshot()
		if len(snap) != len(doc.Metrics) {
			t.Errorf("MetricsSnapshot has %d metrics, /metrics %d", len(snap), len(doc.Metrics))
		}
		var names []string
		for name, v := range doc.Metrics {
			names = append(names, name)
			mv, ok := snap[name]
			if !ok {
				t.Errorf("%s served on /metrics but missing from MetricsSnapshot", name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) || math.IsNaN(mv) || math.IsInf(mv, 0) {
				t.Errorf("%s not finite: /metrics %v, MetricsSnapshot %v", name, v, mv)
			}
		}
		sort.Strings(names)
		return names, doc.Metrics
	}

	memSv := startServer(t, Config{Shards: 2})
	catalogScenario(t, memSv)
	var got metricCatalog
	var memVals map[string]float64
	got.Memory, memVals = scrape(memSv)

	diskSv := startServer(t, Config{Shards: 2, Store: openTestStore(t, StoreConfig{})})
	catalogScenario(t, diskSv)
	var diskVals map[string]float64
	got.Store, diskVals = scrape(diskSv)

	got.Counts = make(map[string]float64, len(catalogCounts))
	for _, name := range catalogCounts {
		got.Counts[name] = memVals[name]
		if diskVals[name] != memVals[name] {
			t.Errorf("%s: store-backed %v, memory-only %v", name, diskVals[name], memVals[name])
		}
	}

	path := filepath.Join("testdata", "metrics-catalog.golden")
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	if *updateCatalog {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update-catalog)", err)
	}
	if !bytes.Equal(want, enc) {
		t.Errorf("metric catalog changed; got:\n%s\nwant:\n%s", enc, want)
	}
}
