package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"memfwd"
	"memfwd/internal/mem"
	"memfwd/internal/opt"
	"memfwd/internal/oracle"
	"memfwd/internal/sim"
)

// rawWorkload is raw-sessions: each client runs its raw sessions one
// after another, each a scripted stream of op batches with live
// migrations, some with a snapshot/restore.
type rawWorkload struct {
	o  options
	sz sizes

	scripts [][]*script // per client, in run order
	warm    *script     // the session each boot pushes through
	sys     *server
}

// gop is one scripted guest operation. block indexes the session's
// malloc history, so the script replays against any server.
type gop struct {
	kind  byte // 'm'alloc, 'f'ree, 'l'oad, 's'tore, 'r'elocate
	size  uint64
	block int
	off   uint64 // word offset within the block
	val   uint64
}

// script is one session: the seed its op batches are generated from
// (again by each user, so a whole workload's batches are never held at
// once), and what a private reference run of them produced.
type script struct {
	seed     int64
	batches  int
	batchOps int
	snapshot bool // snapshot and restore at the midpoint

	addrs   []uint64 // malloc results, in order
	loadSum uint64   // FNV-1a over every loaded value
	digest  uint64   // final heap digest modulo forwarding
}

// ops derives the session's batches from its seed. Every 4th batch
// starts with a malloc of 8-512 bytes and every 16th frees a live block;
// the rest are loads and stores of live words with about 2% relocations
// (each relocation target takes a page of its own, which every later
// snapshot of the session holds).
func (sc *script) ops() [][]gop {
	rng := rand.New(rand.NewSource(sc.seed))
	var sizes []uint64
	var live []int
	out := make([][]gop, 0, sc.batches)
	for b := 0; b < sc.batches; b++ {
		batch := make([]gop, 0, sc.batchOps)
		if b%4 == 0 {
			size := uint64(8 * (1 + rng.Intn(64)))
			sizes = append(sizes, size)
			live = append(live, len(sizes)-1)
			batch = append(batch, gop{kind: 'm', size: size})
		}
		if b%16 == 15 && len(live) > 1 {
			i := rng.Intn(len(live))
			batch = append(batch, gop{kind: 'f', block: live[i]})
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for len(batch) < sc.batchOps {
			bi := live[rng.Intn(len(live))]
			op := gop{block: bi, off: uint64(rng.Intn(int(sizes[bi] / mem.WordSize)))}
			switch k := rng.Intn(100); {
			case k < 2:
				op = gop{kind: 'r', block: bi}
			case k < 51:
				op.kind = 'l'
			default:
				op.kind, op.val = 's', rng.Uint64()
			}
			batch = append(batch, op)
		}
		out = append(out, batch)
	}
	return out
}

const fnvOffset = 14695981039346656037

// fnvMix folds v into a running FNV-1a sum, byte by byte.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// reference runs the script on a private machine with the operations
// the server's /op handler performs, recording what a served session
// must reproduce.
func (sc *script) reference() error {
	m := sim.New(sim.Config{})
	arena := mem.Addr(0x4_0000_0000) // any region above the heap: digests ignore targets
	sc.loadSum = fnvOffset
	for _, batch := range sc.ops() {
		for _, op := range batch {
			switch op.kind {
			case 'm':
				sc.addrs = append(sc.addrs, uint64(m.Malloc(op.size)))
			case 'f':
				m.Free(mem.Addr(sc.addrs[op.block]))
			case 'l':
				sc.loadSum = fnvMix(sc.loadSum, m.Load(mem.Addr(sc.addrs[op.block]+op.off*mem.WordSize), 8))
			case 's':
				m.Store(mem.Addr(sc.addrs[op.block]+op.off*mem.WordSize), op.val, 8)
			case 'r':
				src := mem.Addr(sc.addrs[op.block])
				size, ok := m.Allocator().SizeOf(src)
				if !ok {
					return fmt.Errorf("reference: relocate of dead block %d", op.block)
				}
				if err := opt.TryRelocate(m, src, arena, int(size/mem.WordSize)); err != nil {
					return fmt.Errorf("reference relocate: %w", err)
				}
				arena += mem.Addr((size + 0xFFF) &^ 0xFFF)
			}
		}
	}
	var err error
	sc.digest, err = oracle.DigestModuloForwarding(m.Mem, m.Fwd, m.Alloc)
	return err
}

func (w *rawWorkload) prepare(*result) error {
	seedOf := func(c, i int) int64 { return w.o.seed*7919 + int64(c)*104729 + int64(i) }
	w.warm = &script{seed: seedOf(-1, 0), batches: w.sz.WarmBatches, batchOps: w.sz.BatchOps, snapshot: true}
	all := []*script{w.warm}
	w.scripts = make([][]*script, w.sz.Clients)
	for c := range w.scripts {
		for i := 0; i < w.sz.Sessions; i++ {
			sc := &script{seed: seedOf(c, i), batches: w.sz.Batches, batchOps: w.sz.BatchOps, snapshot: i%w.sz.SnapshotEvery == 0}
			w.scripts[c] = append(w.scripts[c], sc)
			all = append(all, sc)
		}
	}
	return parallel(len(all), func(i int) error { return all[i].reference() })
}

// appSeed is the app seed the memfwd runners use for a benchmark seed,
// so sessions and RunOne references see the same inputs.
func appSeed(seed int64) int64 { return memfwd.Options{Seed: seed}.Norm().Seed }

// parallel runs fn(0..n-1) on one goroutine per CPU and returns the
// first error.
func parallel(n int, fn func(i int) error) error {
	var next atomic.Int64
	return concurrently(min(n, runtime.NumCPU()), func(int) error {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	})
}

// boot brings a server up and pushes one full session through it.
func (w *rawWorkload) boot() error {
	sys, err := bootServer(w.sz.Shards, w.sz.Clients)
	if err != nil {
		return err
	}
	w.sys = sys
	cl := newClient(sys)
	if _, err := cl.rawSession(w.warm, 0, w.sz.Shards, w.sz.MigrateEvery); err != nil {
		return err
	}
	if len(cl.failures) > 0 {
		return fmt.Errorf("warm-up session: %s", cl.failures[0])
	}
	return nil
}

func (w *rawWorkload) teardown() {
	if w.sys == nil {
		return
	}
	w.sys.close()
	w.sys = nil
}

func (w *rawWorkload) measure(r *result, traced bool) (*phase, error) {
	sys := w.sys
	defer w.teardown()
	p := newPhase()
	cs := make([]*client, w.sz.Clients)
	stats := make([][]sessionStats, w.sz.Clients)
	for c := range cs {
		cs[c] = newClient(sys)
	}
	start := time.Now()
	err := concurrently(len(cs), func(c int) error {
		cl := cs[c]
		for _, sc := range w.scripts[c] {
			st, err := cl.rawSession(sc, c%w.sz.Shards, w.sz.Shards, w.sz.MigrateEvery)
			if err != nil {
				return err
			}
			stats[c] = append(stats[c], st)
		}
		return nil
	})
	p.wall = time.Since(start)
	for _, cl := range cs {
		cl.mergeInto(r)
	}
	if err != nil {
		return nil, err
	}
	serverCounts(p, sys.sv)
	for _, sts := range stats {
		for _, st := range sts {
			p.addSession(st)
		}
	}
	clientTotals(p, cs)
	p.reqs = mergeLatencies(cs, "op")
	p.timings = clientTimings(cs)
	return p, nil
}

type opReq struct {
	Op    string  `json:"op"`
	Addr  uint64  `json:"addr,omitempty"`
	Size  uint64  `json:"size,omitempty"`
	Value uint64  `json:"value,omitempty"`
	Ops   []opReq `json:"ops,omitempty"`
}

type opRes struct {
	Addr  uint64 `json:"addr"`
	Value uint64 `json:"value"`
}

// rawSession drives one scripted raw session on the given shard and
// checks it against the script's reference: every malloc address, the
// FNV sum of loaded values, and the final digest. Every migrateEvery
// batches (offset by half) it live-migrates to the next shard; if the
// script says so, at its midpoint it snapshots, restores onto the next
// shard, deletes the original and carries on with the copy (the server
// never frees a snapshot, so only some sessions take one). It deletes
// the session at the end and returns its final statistics.
func (c *client) rawSession(sc *script, shard, shards, migrateEvery int) (sessionStats, error) {
	id, err := c.create(createRequest{Mode: "raw", Shard: &shard})
	if err != nil {
		return sessionStats{}, err
	}
	nMalloc := 0
	loadSum := uint64(fnvOffset)
	reqs := make([]opReq, 0, sc.batchOps)
	for b, batch := range sc.ops() {
		if migrateEvery > 0 && b%migrateEvery == migrateEvery/2 {
			shard = (shard + 1) % shards
			if err := c.do("migrate", http.MethodPost, "/sessions/"+id+"/migrate", map[string]int{"shard": shard}, nil); err != nil {
				return sessionStats{}, err
			}
		}
		if sc.snapshot && b == sc.batches/2 {
			if id, err = c.snapshotRestore(id, &shard, shards); err != nil {
				return sessionStats{}, err
			}
		}
		reqs = reqs[:0]
		for _, op := range batch {
			switch op.kind {
			case 'm':
				reqs = append(reqs, opReq{Op: "malloc", Size: op.size})
			case 'f':
				reqs = append(reqs, opReq{Op: "free", Addr: sc.addrs[op.block]})
			case 'l':
				reqs = append(reqs, opReq{Op: "load", Addr: sc.addrs[op.block] + op.off*mem.WordSize})
			case 's':
				reqs = append(reqs, opReq{Op: "store", Addr: sc.addrs[op.block] + op.off*mem.WordSize, Value: op.val})
			case 'r':
				reqs = append(reqs, opReq{Op: "relocate", Addr: sc.addrs[op.block]})
			}
		}
		var out struct {
			Results []opRes `json:"results"`
		}
		if err := c.do("op", http.MethodPost, "/sessions/"+id+"/op", opReq{Ops: reqs}, &out); err != nil {
			return sessionStats{}, err
		}
		if len(out.Results) != len(batch) {
			return sessionStats{}, fmt.Errorf("session %s: batch %d returned %d results for %d ops", id, b, len(out.Results), len(batch))
		}
		for i, op := range batch {
			switch op.kind {
			case 'm':
				if got, want := out.Results[i].Addr, sc.addrs[nMalloc]; got != want {
					c.check(false, "session %s: malloc %d returned %#x, reference %#x", id, nMalloc, got, want)
					return sessionStats{}, fmt.Errorf("session %s diverged from its reference", id)
				}
				nMalloc++
			case 'l':
				loadSum = fnvMix(loadSum, out.Results[i].Value)
			}
		}
		c.ops += float64(len(batch))
	}
	c.check(nMalloc == len(sc.addrs), "session %s: %d mallocs, reference %d", id, nMalloc, len(sc.addrs))
	c.check(loadSum == sc.loadSum, "session %s: load sum %#x, reference %#x", id, loadSum, sc.loadSum)
	st, err := c.stats(id)
	if err != nil {
		return sessionStats{}, err
	}
	c.check(st.digest == sc.digest, "session %s: digest %#x, reference %#x", id, st.digest, sc.digest)
	return st, c.remove(id)
}

// snapshotRestore snapshots a session, restores the snapshot onto the
// next shard, checks the copy's digest, and deletes the original. It
// returns the copy's id and moves *shard to its home.
func (c *client) snapshotRestore(id string, shard *int, shards int) (string, error) {
	before, err := c.stats(id)
	if err != nil {
		return "", err
	}
	var snap struct {
		Snapshot string `json:"snapshot"`
	}
	if err := c.do("snapshot", http.MethodPost, "/sessions/"+id+"/snapshot", struct{}{}, &snap); err != nil {
		return "", err
	}
	*shard = (*shard + 1) % shards
	var restored sessionInfo
	if err := c.do("restore", http.MethodPost, "/restore", map[string]any{"snapshot": snap.Snapshot, "shard": *shard}, &restored); err != nil {
		return "", err
	}
	if err := c.remove(id); err != nil {
		return "", err
	}
	after, err := c.stats(restored.ID)
	if err != nil {
		return "", err
	}
	c.check(after.digest == before.digest, "session %s restored as %s with digest %#x, was %#x", id, restored.ID, after.digest, before.digest)
	return restored.ID, nil
}
