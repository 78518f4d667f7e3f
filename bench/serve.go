package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"memfwd/internal/serve"
	"memfwd/internal/sim"
)

// server is an in-process serve.Server listening on a loopback port,
// with the HTTP client pool the benchmark's clients share: one
// connection per client.
type server struct {
	sv   *serve.Server
	base string
	hc   *http.Client
}

// bootServer builds and starts a memory-only server the way
// memfwd-serve does.
func bootServer(shards, clients int) (*server, error) {
	sv := serve.New(serve.Config{Shards: shards})
	if err := sv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return &server{
		sv:   sv,
		base: "http://" + sv.Addr(),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}, nil
}

// close stops the server.
func (s *server) close() {
	if s == nil {
		return
	}
	s.sv.Close() //nolint:errcheck // listener close errors do not matter at teardown
	s.hc.CloseIdleConnections()
}

// client is one closed-loop client: it sends its next request only
// after the previous reply, and records each request's latency by kind.
// It runs on one goroutine and keeps its own check tally, merged into
// the result when the phase ends.
type client struct {
	base     string
	hc       *http.Client
	requests int
	ops      float64 // guest operations acknowledged
	lat      map[string][]time.Duration

	attempted int
	failures  []string
}

func newClient(s *server) *client {
	return &client{base: s.base, hc: s.hc, lat: map[string][]time.Duration{}}
}

func (c *client) check(ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

// mergeInto adds the client's requests and checks to r's attempts and
// its failed checks to r's failures. A request that failed stopped the
// client; the caller records it.
func (c *client) mergeInto(r *result) {
	r.attempted += c.requests + c.attempted - len(c.failures)
	for _, f := range c.failures {
		r.fail("%s", f)
	}
}

// do sends one request and decodes a 200 reply into out. The latency
// runs from sending the encoded body to reading the whole reply.
func (c *client) do(kind, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.lat[kind] = append(c.lat[kind], time.Since(t0))
	c.requests++
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// createRequest is the POST /sessions body.
type createRequest struct {
	Mode      string `json:"mode"`
	Shard     *int   `json:"shard,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Opt       bool   `json:"opt,omitempty"`
	Chaos     bool   `json:"chaos,omitempty"`
	ChaosSeed int64  `json:"chaosSeed,omitempty"`
	Tiers     int    `json:"tiers,omitempty"`
	Harts     int    `json:"harts,omitempty"`
	SchedSeed int64  `json:"schedSeed,omitempty"`
}

type sessionInfo struct {
	ID string `json:"id"`
}

func (c *client) create(req createRequest) (string, error) {
	var info sessionInfo
	err := c.do("create", http.MethodPost, "/sessions", req, &info)
	return info.ID, err
}

func (c *client) remove(id string) error {
	return c.do("delete", http.MethodDelete, "/sessions/"+id, nil, nil)
}

// sessionStats is what GET /sessions/{id}/stats reports about one
// session: its heap digest (modulo forwarding), its machine's
// statistics, and, for a tiered app session, its migrator's counts.
type sessionStats struct {
	digest           uint64
	st               *sim.Stats
	wakes, demotions uint64
}

func (c *client) stats(id string) (sessionStats, error) {
	var out struct {
		Digest string     `json:"digest"`
		Stats  *sim.Stats `json:"stats"`
		Tier   *struct {
			Stats struct{ Wakes, Demotions uint64 } `json:"stats"`
		} `json:"tier"`
	}
	if err := c.do("stats", http.MethodGet, "/sessions/"+id+"/stats", nil, &out); err != nil {
		return sessionStats{}, err
	}
	d, err := strconv.ParseUint(out.Digest, 0, 64)
	if err != nil || out.Stats == nil {
		return sessionStats{}, fmt.Errorf("session %s: bad stats reply (digest %q): %v", id, out.Digest, err)
	}
	s := sessionStats{digest: d, st: out.Stats}
	if out.Tier != nil {
		s.wakes, s.demotions = out.Tier.Stats.Wakes, out.Tier.Stats.Demotions
	}
	return s, nil
}

// appSession is the create request every app session of the benchmark
// uses: the optimized layout under the chaos relocation adversary, two
// memory tiers with the online migrator, and a relocator hart racing
// the guest.
func appSession(name string, seed, chaosSeed int64, sz sizes, shard int) createRequest {
	return createRequest{
		Mode: name, Shard: &shard, Seed: seed, Opt: true,
		Chaos: true, ChaosSeed: chaosSeed, Tiers: sz.Tiers, Harts: sz.Harts, SchedSeed: chaosSeed,
	}
}

type stepReply struct {
	Used   int64 `json:"used"`
	Done   bool  `json:"done"`
	Result *struct {
		Checksum uint64 `json:"checksum"`
		Err      string `json:"err"`
	} `json:"result"`
}

func (c *client) step(id string, ops int64) (stepReply, error) {
	var out stepReply
	err := c.do("step", http.MethodPost, "/sessions/"+id+"/step", map[string]int64{"ops": ops}, &out)
	return out, err
}

// concurrently runs fn(0..n-1) on n goroutines and returns the first
// error once all have returned.
func concurrently(n int, fn func(c int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mergeLatencies gathers every client's samples of one request kind.
func mergeLatencies(cs []*client, kind string) []time.Duration {
	var out []time.Duration
	for _, c := range cs {
		out = append(out, c.lat[kind]...)
	}
	return out
}

// clientTimings are the per-layer latencies of the session lifecycle
// requests, as the clients saw them.
func clientTimings(cs []*client) []metric {
	var maxMigrate time.Duration
	for _, d := range mergeLatencies(cs, "migrate") {
		maxMigrate = max(maxMigrate, d)
	}
	return []metric{
		{"serve.create_p50_ms", percentile(mergeLatencies(cs, "create"), 50), "ms"},
		{"serve.migrate_p50_ms", percentile(mergeLatencies(cs, "migrate"), 50), "ms"},
		{"serve.migrate_max_ms", float64(maxMigrate) / float64(time.Millisecond), "ms"},
		{"serve.snapshot_p50_ms", percentile(mergeLatencies(cs, "snapshot"), 50), "ms"},
		{"serve.restore_p50_ms", percentile(mergeLatencies(cs, "restore"), 50), "ms"},
	}
}

// serverCounts copies the server's own counters into the phase's exact
// counts.
func serverCounts(p *phase, sv *serve.Server) {
	m := sv.MetricsSnapshot()
	for _, n := range []string{
		"serve.migrations", "serve.restores", "serve.shed",
	} {
		p.counts[n] = m[n]
	}
}

// clientTotals adds the clients' requests and acknowledged guest
// operations to the phase.
func clientTotals(p *phase, cs []*client) {
	for _, c := range cs {
		p.counts["serve.requests"] += float64(c.requests)
		p.ops += c.ops
	}
}
