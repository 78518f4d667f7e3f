package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"memfwd/internal/mem"
	"memfwd/internal/obs"
	"memfwd/internal/opt"
	"memfwd/internal/oracle"
	"memfwd/internal/sim"
)

// SelftestConfig sizes the load harness. Zero fields take defaults.
type SelftestConfig struct {
	Sessions int   // concurrent synthetic sessions (default 1000)
	Shards   int   // server shards (default 4)
	Workers  int   // concurrent HTTP driver goroutines (default 32)
	Ops      int   // script length per session (default 160)
	Seed     int64 // base seed; session i runs script Seed+i (default 1)
	Sim      sim.Config

	// Short shrinks the zero-field defaults (200 sessions, 16 workers,
	// 80 ops) for quick smoke runs; explicitly set fields still win.
	Short bool
}

func (c SelftestConfig) norm() SelftestConfig {
	if c.Short {
		if c.Sessions <= 0 {
			c.Sessions = 200
		}
		if c.Workers <= 0 {
			c.Workers = 16
		}
		if c.Ops <= 0 {
			c.Ops = 80
		}
	}
	if c.Sessions <= 0 {
		c.Sessions = 1000
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Workers <= 0 {
		c.Workers = 32
	}
	if c.Ops <= 0 {
		c.Ops = 160
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Selftest boots a server and drives cfg.Sessions synthetic sessions
// against it over real HTTP, proving zero cross-session state bleed:
// every session's malloc addresses, load values, and final heap digest
// must be identical to a single-session in-process reference run of
// the same seeded script. All sessions exist concurrently through the
// middle of the run; half are snapshotted and restored onto the next
// shard mid-script (checking digest equality across the restore), the
// other half live-migrate. logf (nil discards) receives progress.
func Selftest(cfg SelftestConfig, logf func(string, ...any)) error {
	cfg = cfg.norm()
	say := func(format string, args ...any) {
		if logf != nil {
			logf(format, args...)
		}
	}
	sv := New(Config{Shards: cfg.Shards, Sim: cfg.Sim})
	if err := sv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer sv.Close()
	base := "http://" + sv.Addr()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.Workers * 2,
		MaxIdleConnsPerHost: cfg.Workers * 2,
	}}

	start := time.Now()
	clients := make([]*scriptClient, cfg.Sessions)
	for i := range clients {
		clients[i] = &scriptClient{
			base:   base,
			http:   client,
			seed:   cfg.Seed + int64(i),
			shard:  i % cfg.Shards,
			shards: cfg.Shards,
			simCfg: cfg.Sim,
			split:  cfg.Ops / 2,
			nOps:   cfg.Ops,
		}
	}

	// Phase A: reference runs, session creation, first half-script.
	// After this phase every session exists concurrently.
	if err := forEach(cfg.Workers, len(clients), func(i int) error {
		return clients[i].phaseA()
	}); err != nil {
		return fmt.Errorf("serve selftest phase A: %w", err)
	}
	mets := sv.MetricsSnapshot()
	if got := int(mets["serve.sessions.active"]); got != cfg.Sessions {
		return fmt.Errorf("serve selftest: %d sessions active at peak, want %d", got, cfg.Sessions)
	}
	for i := 0; i < cfg.Shards; i++ {
		if mets[fmt.Sprintf("serve.shard.%d.active", i)] == 0 {
			return fmt.Errorf("serve selftest: shard %d hosts no sessions at peak", i)
		}
	}
	say("phase A done: %d sessions live across %d shards (%s)",
		cfg.Sessions, cfg.Shards, time.Since(start).Round(time.Millisecond))

	// Phase B: snapshot+restore or migrate mid-script, second
	// half-script, digest verification against the reference.
	if err := forEach(cfg.Workers, len(clients), func(i int) error {
		return clients[i].phaseB()
	}); err != nil {
		return fmt.Errorf("serve selftest phase B: %w", err)
	}

	// Phase C: teardown and final metrics sanity.
	if err := forEach(cfg.Workers, len(clients), func(i int) error {
		return clients[i].phaseC()
	}); err != nil {
		return fmt.Errorf("serve selftest phase C: %w", err)
	}
	mets = sv.MetricsSnapshot()
	for k, v := range mets {
		if v != obs.Finite(v) {
			return fmt.Errorf("serve selftest: metric %s is not finite", k)
		}
	}
	if mets["serve.sessions.active"] != 0 {
		return fmt.Errorf("serve selftest: %v sessions leaked", mets["serve.sessions.active"])
	}
	say("selftest passed: %d sessions, %d shards, %.0f guest ops, %d migrations, %d restores in %s",
		cfg.Sessions, cfg.Shards, mets["serve.ops"],
		uint64(mets["serve.migrations"]), uint64(mets["serve.restores"]),
		time.Since(start).Round(time.Millisecond))
	return nil
}

// forEach runs fn(0..n-1) on `workers` goroutines, returning the first
// error (all goroutines drain before return).
func forEach(workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := fn(i); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// --- synthetic script -------------------------------------------------

// sop is one scripted guest operation. Block references are indices
// into the session's malloc history, so the same script replays against
// any target.
type sop struct {
	kind  byte // 'm'alloc, 'f'ree, 's'tore, 'l'oad, 'r'elocate
	size  uint64
	block int
	off   uint64 // word offset within the block
	val   uint64
}

// genScript derives a deterministic operation script from a seed. The
// generator models block liveness so frees and relocations always hit
// live blocks.
func genScript(seed int64, n int) []sop {
	rng := rand.New(rand.NewSource(seed))
	type blk struct {
		size uint64
		live bool
	}
	var blocks []blk
	var liveIdx []int
	reindex := func() {
		liveIdx = liveIdx[:0]
		for i, b := range blocks {
			if b.live {
				liveIdx = append(liveIdx, i)
			}
		}
	}
	ops := make([]sop, 0, n)
	for len(ops) < n {
		k := rng.Intn(10)
		if len(liveIdx) == 0 {
			k = 0
		}
		switch {
		case k < 3: // malloc
			size := uint64(8 * (1 + rng.Intn(64)))
			blocks = append(blocks, blk{size: size, live: true})
			liveIdx = append(liveIdx, len(blocks)-1)
			ops = append(ops, sop{kind: 'm', size: size})
		case k < 6: // store
			bi := liveIdx[rng.Intn(len(liveIdx))]
			ops = append(ops, sop{kind: 's', block: bi,
				off: uint64(rng.Intn(int(blocks[bi].size / 8))), val: rng.Uint64()})
		case k < 9: // load
			bi := liveIdx[rng.Intn(len(liveIdx))]
			ops = append(ops, sop{kind: 'l', block: bi,
				off: uint64(rng.Intn(int(blocks[bi].size / 8)))})
		case k == 9 && rng.Intn(3) == 0: // free (kept rare)
			bi := liveIdx[rng.Intn(len(liveIdx))]
			blocks[bi].live = false
			reindex()
			ops = append(ops, sop{kind: 'f', block: bi})
		default: // relocate
			bi := liveIdx[rng.Intn(len(liveIdx))]
			ops = append(ops, sop{kind: 'r', block: bi})
		}
	}
	return ops
}

// fnvMix folds v into a running FNV-1a sum.
func fnvMix(h, v uint64) uint64 {
	const prime64 = 1099511628211
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime64
		v >>= 8
	}
	return h
}

// runReference executes script on a private in-process machine,
// returning the malloc address sequence, the FNV sum of load values,
// and the final heap digest. This is the single-session ground truth a
// served session must match exactly.
func runReference(simCfg sim.Config, script []sop) (addrs []uint64, loadSum, digest uint64, err error) {
	m := sim.New(simCfg)
	arena := shardArenaBase(0)
	loadSum = 14695981039346656037
	for _, op := range script {
		switch op.kind {
		case 'm':
			addrs = append(addrs, uint64(m.Malloc(op.size)))
		case 'f':
			m.Free(mem.Addr(addrs[op.block]))
		case 's':
			m.StoreWord(mem.Addr(addrs[op.block])+mem.Addr(op.off*8), op.val)
		case 'l':
			loadSum = fnvMix(loadSum, m.LoadWord(mem.Addr(addrs[op.block])+mem.Addr(op.off*8)))
		case 'r':
			size, ok := m.Allocator().SizeOf(mem.Addr(addrs[op.block]))
			if !ok {
				return nil, 0, 0, fmt.Errorf("reference: relocate of dead block %d", op.block)
			}
			bytes := (size + 0xFFF) &^ uint64(0xFFF)
			if rerr := opt.TryRelocate(m, mem.Addr(addrs[op.block]), arena, int(size/8)); rerr != nil {
				return nil, 0, 0, fmt.Errorf("reference relocate: %w", rerr)
			}
			arena += mem.Addr(bytes)
		}
	}
	digest, err = oracle.DigestModuloForwarding(m.Mem, m.Fwd, m.Alloc)
	return addrs, loadSum, digest, err
}

// scriptClient drives one synthetic session over HTTP and checks it
// against its in-process reference run.
type scriptClient struct {
	base   string
	http   *http.Client
	seed   int64
	shard  int
	shards int
	simCfg sim.Config
	split  int
	nOps   int

	script    []sop
	wantAddrs []uint64
	wantSum   uint64
	wantDig   uint64

	id      string
	nMalloc int // served mallocs verified against wantAddrs so far
	loadSum uint64
}

func (c *scriptClient) post(path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", path, resp.Status, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (c *scriptClient) do(req *http.Request, out any) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// runOps executes script[from:to] against the served session in
// batches. Block addresses are taken from the reference run's malloc
// sequence (so an op may reference a block malloc'd earlier in the same
// batch), and every served malloc is checked against that prediction —
// the core zero-bleed assertion: any cross-session allocator state
// leak shifts an address and trips it.
func (c *scriptClient) runOps(from, to int) error {
	const batchMax = 32
	for from < to {
		n := to - from
		if n > batchMax {
			n = batchMax
		}
		chunk := c.script[from : from+n]
		reqs := make([]opRequest, len(chunk))
		for i, op := range chunk {
			switch op.kind {
			case 'm':
				reqs[i] = opRequest{Op: "malloc", Size: op.size}
			case 'f':
				reqs[i] = opRequest{Op: "free", Addr: c.wantAddrs[op.block]}
			case 's':
				reqs[i] = opRequest{Op: "store", Addr: c.wantAddrs[op.block] + op.off*8, Value: op.val}
			case 'l':
				reqs[i] = opRequest{Op: "load", Addr: c.wantAddrs[op.block] + op.off*8}
			case 'r':
				reqs[i] = opRequest{Op: "relocate", Addr: c.wantAddrs[op.block]}
			}
		}
		var out struct {
			Results []opResult `json:"results"`
		}
		if err := c.post("/sessions/"+c.id+"/op", opRequest{Ops: reqs}, &out); err != nil {
			return err
		}
		if len(out.Results) != len(chunk) {
			return fmt.Errorf("batch returned %d results, want %d", len(out.Results), len(chunk))
		}
		for i, op := range chunk {
			switch op.kind {
			case 'm':
				got := out.Results[i].Addr
				if want := c.wantAddrs[c.nMalloc]; got != want {
					return fmt.Errorf("session %s (seed %d): malloc %d returned %#x, reference run got %#x — cross-session bleed",
						c.id, c.seed, c.nMalloc, got, want)
				}
				c.nMalloc++
			case 'l':
				c.loadSum = fnvMix(c.loadSum, out.Results[i].Value)
			}
		}
		from += n
	}
	return nil
}

func (c *scriptClient) digest() (uint64, error) {
	var out opResult
	if err := c.post("/sessions/"+c.id+"/op", opRequest{Op: "digest"}, &out); err != nil {
		return 0, err
	}
	return out.Value, nil
}

func (c *scriptClient) phaseA() error {
	c.script = genScript(c.seed, c.nOps)
	var err error
	c.wantAddrs, c.wantSum, c.wantDig, err = runReference(c.simCfg, c.script)
	if err != nil {
		return err
	}
	c.loadSum = 14695981039346656037
	var info sessionInfo
	if err := c.post("/sessions", createRequest{Mode: "raw", Shard: &c.shard}, &info); err != nil {
		return err
	}
	c.id = info.ID
	return c.runOps(0, c.split)
}

func (c *scriptClient) phaseB() error {
	next := (c.shard + 1) % c.shards
	if c.seed%2 == 0 {
		// Suspend / restore path: snapshot, restore on the next shard,
		// check the restored copy digests identically, retire the
		// original, continue on the restored session.
		preDig, err := c.digest()
		if err != nil {
			return err
		}
		var snapped struct {
			Snapshot string `json:"snapshot"`
		}
		if err := c.post("/sessions/"+c.id+"/snapshot", struct{}{}, &snapped); err != nil {
			return err
		}
		var restored sessionInfo
		if err := c.post("/restore", map[string]any{"snapshot": snapped.Snapshot, "shard": next}, &restored); err != nil {
			return err
		}
		req, _ := http.NewRequest(http.MethodDelete, c.base+"/sessions/"+c.id, nil)
		if err := c.do(req, nil); err != nil {
			return err
		}
		c.id = restored.ID
		postDig, err := c.digest()
		if err != nil {
			return err
		}
		if postDig != preDig {
			return fmt.Errorf("seed %d: digest diverged across snapshot/restore: %#x -> %#x", c.seed, preDig, postDig)
		}
	} else {
		// Live migration path: the session keeps its identity and moves.
		if err := c.post("/sessions/"+c.id+"/migrate", map[string]int{"shard": next}, nil); err != nil {
			return err
		}
	}
	c.shard = next
	if err := c.runOps(c.split, len(c.script)); err != nil {
		return err
	}
	dig, err := c.digest()
	if err != nil {
		return err
	}
	if dig != c.wantDig {
		return fmt.Errorf("seed %d: final digest %#x, reference %#x — cross-session bleed", c.seed, dig, c.wantDig)
	}
	if c.loadSum != c.wantSum {
		return fmt.Errorf("seed %d: load sum %#x, reference %#x — cross-session bleed", c.seed, c.loadSum, c.wantSum)
	}
	return nil
}

func (c *scriptClient) phaseC() error {
	req, _ := http.NewRequest(http.MethodDelete, c.base+"/sessions/"+c.id, nil)
	return c.do(req, nil)
}
