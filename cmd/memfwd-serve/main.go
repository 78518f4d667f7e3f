// Command memfwd-serve is the long-running simulation session server:
// a pool of simulated machines sharded across workers, driven by many
// concurrent clients over HTTP+JSON. Sessions can run a registered
// benchmark application in stepped guest-operation quanta (optionally
// under the chaos relocation adversary), or expose the raw guest
// operations directly; any session can be snapshotted, restored, and
// migrated between shards mid-run.
//
// Usage:
//
//	memfwd-serve -addr 127.0.0.1:8377 -shards 4
//	memfwd-serve -store-dir /var/lib/memfwd -recover
//	memfwd-serve -selftest -selftest-short
//
// With -store-dir every session is persisted (atomic snapshot files +
// per-session write-ahead logs) and -recover re-materializes them
// after a crash; see DESIGN.md §13 for the durability model. The API
// index is served at /; see DESIGN.md §10 for the full protocol, the
// shard-ownership model, and the determinism contract.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"memfwd/internal/serve"
	"memfwd/internal/sim"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "memfwd-serve: "+format+"\n", args...)
}

func main() {
	var (
		addr   = flag.String("addr", "127.0.0.1:8377", "listen address (\":0\" picks a free port)")
		shards = flag.Int("shards", 4, "worker shards sessions are distributed over")
		line   = flag.Int("line", 0, "cache line size for session machines (0 = simulator default)")

		storeDir = flag.String("store-dir", "", "persist every session to this directory (crash-safe snapshots + write-ahead logs); empty serves memory-only")
		recover_ = flag.Bool("recover", false, "before serving, scan -store-dir and re-materialize every recoverable session and snapshot (requires -store-dir; the server must be configured like the one that wrote the store)")

		selftest         = flag.Bool("selftest", false, "run the load-test harness against an in-process server and exit")
		selftestShort    = flag.Bool("selftest-short", false, "shrink the -selftest defaults for a quick smoke run (200 sessions, 16 workers, 80 ops)")
		selftestSessions = flag.Int("selftest-sessions", 0, "concurrent synthetic sessions for -selftest (0 = harness default)")
		selftestWorkers  = flag.Int("selftest-workers", 0, "HTTP driver goroutines for -selftest (0 = harness default)")
		selftestOps      = flag.Int("selftest-ops", 0, "script length per -selftest session (0 = harness default)")
		selftestSeed     = flag.Int64("selftest-seed", 1, "base seed for -selftest scripts")
	)
	flag.Parse()

	simCfg := sim.Config{LineSize: *line}
	if *selftest {
		cfg := serve.SelftestConfig{
			Sessions: *selftestSessions,
			Shards:   *shards,
			Workers:  *selftestWorkers,
			Ops:      *selftestOps,
			Seed:     *selftestSeed,
			Sim:      simCfg,
			Short:    *selftestShort,
		}
		if err := serve.Selftest(cfg, logf); err != nil {
			logf("selftest FAILED: %v", err)
			os.Exit(1)
		}
		return
	}

	svCfg := serve.Config{Shards: *shards, Sim: simCfg}
	if *storeDir != "" {
		st, err := serve.OpenStore(serve.StoreConfig{Dir: *storeDir})
		if err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		svCfg.Store = st
	} else if *recover_ {
		logf("-recover requires -store-dir")
		os.Exit(1)
	}
	sv := serve.New(svCfg)
	if *recover_ {
		rep, err := sv.Recover()
		if err != nil {
			logf("recover: %v", err)
			os.Exit(1)
		}
		logf("recovered %d sessions and %d snapshots (%d ops + %d grants replayed, %d tail rollbacks, %d scavenges, %d damaged)",
			rep.Sessions, rep.Snapshots, rep.ReplayedOps, rep.ReplayedGrants,
			rep.TailRollbacks, rep.Scavenges, rep.Damaged)
	}
	if err := sv.Start(*addr); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	logf("session server on http://%s (%d shards)", sv.Addr(), *shards)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logf("shutting down")
	if err := sv.Close(); err != nil {
		logf("close: %v", err)
		os.Exit(1)
	}
}
