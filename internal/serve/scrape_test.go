package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestConcurrentScrapesRaceClean drives every reader of the metrics
// registry and the event hubs against live work: scrapers GET /metrics
// and every session holds an /events stream open while app sessions
// step and migrate and raw sessions run op batches with relocations.
// Deleting the sessions must then end every stream. Under -race this
// checks that the registry's views are safe to evaluate concurrently
// with each other and with requests.
func TestConcurrentScrapesRaceClean(t *testing.T) {
	sv := startServer(t, Config{Shards: 2})
	var ids []string
	for i := 0; i < 2; i++ {
		var app, raw sessionInfo
		call(t, sv, "POST", "/sessions", createRequest{Mode: "mst", Tiers: 2, Seed: int64(i + 1)}, &app)
		call(t, sv, "POST", "/sessions", createRequest{Mode: "raw"}, &raw)
		ids = append(ids, app.ID, raw.ID)
	}

	// One stream per session, each reading until the server ends it.
	streams := make(chan error, len(ids))
	for _, id := range ids {
		resp, err := http.Get("http://" + sv.Addr() + "/sessions/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		go func(id string) {
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				if !json.Valid(sc.Bytes()) {
					streams <- fmt.Errorf("session %s: event line not JSON: %s", id, sc.Text())
					return
				}
			}
			streams <- sc.Err()
		}(id)
	}

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var doc struct {
					Metrics map[string]float64 `json:"metrics"`
				}
				if err := callErr(sv, "GET", "/metrics", nil, &doc); err != nil {
					t.Errorf("/metrics: %v", err)
					return
				}
			}
		}()
	}

	var work sync.WaitGroup
	for i, id := range ids {
		work.Add(1)
		go func(i int, id string) {
			defer work.Done()
			for round := 0; round < 4; round++ {
				if i%2 == 0 {
					var resp stepResponse
					if err := callErr(sv, "POST", "/sessions/"+id+"/step", map[string]int64{"ops": 5_000}, &resp); err != nil {
						t.Error(err)
						return
					}
					if err := callErr(sv, "POST", "/sessions/"+id+"/migrate", map[string]int{"shard": round % 2}, nil); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				var blk opResult
				if err := callErr(sv, "POST", "/sessions/"+id+"/op", opRequest{Op: "malloc", Size: 64}, &blk); err != nil {
					t.Error(err)
					return
				}
				batch := opRequest{Ops: []opRequest{
					{Op: "store", Addr: blk.Addr, Value: uint64(round)},
					{Op: "relocate", Addr: blk.Addr},
					{Op: "load", Addr: blk.Addr},
					{Op: "digest"},
				}}
				if err := callErr(sv, "POST", "/sessions/"+id+"/op", batch, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(i, id)
	}
	work.Wait()
	close(stop)
	scrapers.Wait()

	for _, id := range ids {
		call(t, sv, "DELETE", "/sessions/"+id, nil, nil)
	}
	for range ids {
		select {
		case err := <-streams:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("an event stream did not end after its session was deleted")
		}
	}
	if n := sv.MetricsSnapshot()["serve.sessions.active"]; n != 0 {
		t.Fatalf("serve.sessions.active = %v after deleting every session", n)
	}
}
