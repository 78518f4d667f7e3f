// Command figures regenerates every table and figure of the paper's
// evaluation section (Table 1, Figures 5, 6a, 6b, 7, 8, 9, 10a-d),
// plus the tiered-memory extension (static vs online adaptive
// relocation), and prints them as text tables.
//
// Usage:
//
//	figures                 # everything
//	figures -only fig5      # one experiment: table1, fig5, fig6, fig7,
//	                        # fig8, fig9, fig10, tier, ext
//	figures -scale 2        # larger workloads
//	figures -jobs 8         # experiment cells across 8 workers
//	                        # (results identical at any jobs count)
//	figures -only fig5 -json -sample 10000   # raw runs as JSON, each
//	                        # carrying a sampler time-series (Samples)
//	figures -json           # every run series as ONE JSON object
//	                        # keyed by figure name
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"memfwd/internal/figures"
	"memfwd/internal/pprofutil"
	"memfwd/internal/sim"
)

func main() {
	var (
		only   = flag.String("only", "", "run a single experiment (table1, fig5, fig6, fig7, fig8, fig9, fig10, tier, ext)")
		seed   = flag.Int64("seed", 9, "workload seed")
		scale  = flag.Int("scale", 1, "workload scale factor")
		asJSON = flag.Bool("json", false, "emit raw runs as JSON instead of tables (fig5/fig6/fig7/fig10/tier)")
		sample = flag.Uint64("sample", 0, "attach the sampler: a time-series point every N instructions per run, in each run's Samples (JSON) with per-phase labels")
		jobs   = flag.Int("jobs", 0, "experiment-engine worker count (0 = GOMAXPROCS); results are identical at any value")
		http   = flag.String("http", "", "serve the live telemetry plane on this address while the suite runs (e.g. 127.0.0.1:8080; /metrics, /samples, /heatmap, /spans, /events)")

		timeout      = flag.Duration("timeout", 0, "per-cell deadline (0 = unbounded); exceeding cells are marked incomplete, the rest still run")
		suiteTimeout = flag.Duration("suite-timeout", 0, "whole-pipeline deadline (0 = unbounded)")
		faultSpec    = flag.String("fault", "", "arm a deterministic fault on matching cells: kind@point[:visit] (e.g. flip@relocate.copy-write)")
		faultCell    = flag.String("fault-cell", "", "restrict -fault to cells whose label contains this substring (e.g. health/line32/L)")
		faultSeed    = flag.Int64("fault-seed", 0, "seed for the fault corruption stream (0 = -seed)")

		harts     = flag.Int("harts", 1, "hart count per cell: harts 1..N-1 race the guest with concurrent relocations under the deterministic scheduler (1 = single-hart)")
		schedSeed = flag.Int64("sched-seed", 0, "seed for the relocator-hart interleaving (0 = -seed; with -harts)")

		cpuProfile = flag.String("cpuprofile", "", "write a Go CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a Go heap profile (after GC) to this file at exit")
	)
	flag.Parse()

	if *harts < 1 || *harts > sim.MaxHarts {
		fmt.Fprintf(os.Stderr, "figures: -harts wants 1..%d (got %d)\n", sim.MaxHarts, *harts)
		os.Exit(2)
	}

	stopProf, err := pprofutil.StartCPU(*cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}

	cfg := figures.Config{
		Only:         *only,
		JSON:         *asJSON,
		Seed:         *seed,
		Scale:        *scale,
		Sample:       *sample,
		Jobs:         *jobs,
		JobTimeout:   *timeout,
		SuiteTimeout: *suiteTimeout,
		Fault:        *faultSpec,
		FaultCell:    *faultCell,
		FaultSeed:    *faultSeed,
		HTTPAddr:     *http,
		Harts:        *harts,
		SchedSeed:    *schedSeed,
	}
	runErr := figures.Run(cfg, os.Stdout, os.Stderr)

	stopProf()
	if err := pprofutil.WriteHeap(*memProfile); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "figures:", runErr)
		if errors.Is(runErr, figures.ErrIncomplete) {
			// Partial results were written; distinguish degradation
			// from hard failure.
			os.Exit(1)
		}
		os.Exit(2)
	}
}
