// Command memfwd-sim runs one benchmark application on the simulated
// machine and prints the full measurement record.
//
// Usage:
//
//	memfwd-sim -app health -line 64 -opt -prefetch -block 4 -seed 9
//	memfwd-sim -app health -lines 32,64,128 -opt -jobs 4 -json
//
// Observability:
//
//	memfwd-sim -app health -trace t.ndjson -perfetto t.json \
//	           -sample-every 10000 -sample-csv series.csv -metrics -json
//
// -trace streams every simulator event (allocations, relocations,
// forwarded references, traps, cache misses, dependence violations,
// phases) as NDJSON; -perfetto writes the same events as a Chrome
// trace_event JSON array for chrome://tracing or ui.perfetto.dev;
// -sample-every turns the run into a time-series; -json emits the final
// record in the same encoding as cmd/figures -json.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"memfwd"
	"memfwd/internal/agent"
	"memfwd/internal/apps/app"
	"memfwd/internal/exp"
	"memfwd/internal/fault"
	"memfwd/internal/mem"
	"memfwd/internal/pprofutil"
	"memfwd/internal/sched"
	"memfwd/internal/sim"
	"memfwd/internal/tier"
)

func main() {
	var (
		appName  = flag.String("app", "health", "application name (see -list)")
		list     = flag.Bool("list", false, "list applications and exit")
		line     = flag.Int("line", 32, "cache line size in bytes")
		optOn    = flag.Bool("opt", false, "enable the locality optimization")
		prefetch = flag.Bool("prefetch", false, "enable software prefetching")
		block    = flag.Int("block", 1, "prefetch block size in lines")
		seed     = flag.Int64("seed", 9, "workload seed")
		scale    = flag.Int("scale", 1, "workload scale factor")
		perfect  = flag.Bool("perfect", false, "perfect forwarding (Figure 10 Perf)")
		profile  = flag.Bool("profile", false, "attach the Section 3.2 forwarding profiler and print its report")

		tracePath    = flag.String("trace", "", "write NDJSON trace events to this file")
		perfettoPath = flag.String("perfetto", "", "write a Chrome/Perfetto trace_event JSON trace to this file")
		sampleEvery  = flag.Uint64("sample-every", 0, "sample a time-series point every N instructions")
		sampleCSV    = flag.String("sample-csv", "", "also write the time-series as CSV to this file")
		metrics      = flag.Bool("metrics", false, "print the metrics registry after the run")
		asJSON       = flag.Bool("json", false, "emit the final record as JSON (cmd/figures -json encoding)")

		httpAddr    = flag.String("http", "", "serve the live telemetry plane on this address during the run (127.0.0.1:0 picks a port; /metrics, /samples, /heatmap, /spans, /events)")
		httpLinger  = flag.Duration("http-linger", 0, "keep the telemetry server up this long after the run completes")
		relocReport = flag.Bool("relocation-report", false, "record relocation spans and print the per-phase two-phase-commit cost report")
		heatTop     = flag.Int("heat", 0, "attach the per-object heat map and print the K hottest objects after the run")
		attrCSV     = flag.String("attr-csv", "", "write the trap site × object attribution as CSV to this file (implies -profile)")
		attrJSON    = flag.String("attr-json", "", "write the trap site × object attribution as JSON to this file (implies -profile)")

		lines = flag.String("lines", "", "comma-separated line sizes (e.g. 32,64,128): sweep them through the parallel experiment engine instead of one -line run")
		jobs  = flag.Int("jobs", 0, "experiment-engine worker count for -lines sweeps (0 = GOMAXPROCS); results are identical at any value")

		harts     = flag.Int("harts", 1, "hart count: harts 1..N-1 are relocator harts a deterministic seeded scheduler interleaves against the guest, racing concurrent relocations (1 = single-hart, byte-identical to previous releases)")
		schedSeed = flag.Int64("sched-seed", 0, "seed for the relocator-hart interleaving (0 = -seed; with -harts)")

		tiers        = flag.Int("tiers", 0, "partition main memory into N latency tiers and run the online adaptive migrator (0 = flat memory; the heap is the near tier, demotions and over-budget allocations go far)")
		migrateEvery = flag.Int("migrate-every", 4096, "mean guest operations between migrator wakes (with -tiers)")
		fastFrac     = flag.Float64("fast-frac", 0.25, "near-memory residency budget as a fraction of live heap bytes (with -tiers)")
		tierStatic   = flag.Bool("tier-static", false, "one-shot static placement instead of online adaptation (with -tiers)")

		faultSpec = flag.String("fault", "", "arm a deterministic fault: kind@point[:visit] (e.g. flip@relocate.copy-write); a crashed or corrupted run exits 1 with the reason")
		faultSeed = flag.Int64("fault-seed", 0, "seed for the fault corruption stream (0 = -seed)")
		timeout   = flag.Duration("timeout", 0, "per-run deadline (0 = unbounded)")

		cpuProfile = flag.String("cpuprofile", "", "write a Go CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a Go heap profile (after GC) to this file at exit")
	)
	flag.Parse()

	stopProf, err := pprofutil.StartCPU(*cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memfwd-sim:", err)
		os.Exit(1)
	}
	defer func() {
		stopProf()
		if err := pprofutil.WriteHeap(*memProfile); err != nil {
			fmt.Fprintln(os.Stderr, "memfwd-sim:", err)
		}
	}()

	if *list {
		for _, a := range memfwd.Apps() {
			fmt.Printf("%-10s %s\n           optimization: %s\n", a.Name, a.Description, a.Optimization)
		}
		return
	}

	a, ok := memfwd.AppByName(*appName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown application %q (use -list)\n", *appName)
		os.Exit(2)
	}

	if *tiers == 1 || *tiers < 0 {
		fmt.Fprintln(os.Stderr, "memfwd-sim: -tiers wants 0 (flat) or >= 2")
		os.Exit(2)
	}
	if *migrateEvery > agent.MaxEvery {
		fmt.Fprintf(os.Stderr, "memfwd-sim: -migrate-every wants at most %d (got %d)\n", agent.MaxEvery, *migrateEvery)
		os.Exit(2)
	}

	// Validate -harts here so a bad count is a clean usage error, not a
	// machine-construction panic deep in the run.
	if *harts < 1 || *harts > sim.MaxHarts {
		fmt.Fprintf(os.Stderr, "memfwd-sim: -harts wants 1..%d (got %d)\n", sim.MaxHarts, *harts)
		os.Exit(2)
	}

	if *lines != "" {
		// Sweep mode: each line size is one engine job with its own
		// machine, so per-machine observability flags do not apply
		// (-http does: the engine wires each cell to the shared plane).
		if *tracePath != "" || *perfettoPath != "" || *sampleCSV != "" || *metrics || *profile ||
			*relocReport || *heatTop > 0 || *attrCSV != "" || *attrJSON != "" || *tiers != 0 {
			fmt.Fprintln(os.Stderr, "memfwd-sim: -lines sweeps do not support -trace, -perfetto, -sample-csv, -metrics, -profile, -relocation-report, -heat, -attr-csv, -attr-json, or -tiers")
			os.Exit(2)
		}
		ls, err := parseLines(*lines)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memfwd-sim:", err)
			os.Exit(2)
		}
		o := memfwd.Options{
			Seed: *seed, Scale: *scale, SampleEvery: *sampleEvery, Jobs: *jobs,
			JobTimeout: *timeout,
			Fault:      *faultSpec, FaultSeed: *faultSeed,
			Harts: *harts, SchedSeed: *schedSeed,
		}
		if *httpAddr != "" {
			plane, err := memfwd.BootTelemetry(*httpAddr, *httpLinger, logTelemetry)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memfwd-sim:", err)
				os.Exit(1)
			}
			// One handle owns linger + close; Shutdown is idempotent, so
			// this single deferred call can never linger twice.
			defer plane.Shutdown()
			o.Telemetry = plane.Server()
		}
		v := variantOf(*optOn, *prefetch, *perfect)
		runs, errs := memfwd.RunLines(a, ls, v, blockOf(*prefetch, *block), o)
		if *asJSON {
			if err := memfwd.WriteJSON(os.Stdout, runs); err != nil {
				fmt.Fprintln(os.Stderr, "memfwd-sim:", err)
				os.Exit(1)
			}
		} else {
			for _, r := range runs {
				if r.Stats == nil {
					fmt.Printf("app=%s line=%dB variant=%-4s incomplete: %s\n",
						r.App, r.Line, r.Variant, r.Incomplete)
					continue
				}
				fmt.Printf("app=%s line=%dB variant=%-4s cycles=%-12d L1-load-misses=%-10d loads-forwarded=%d\n",
					r.App, r.Line, r.Variant, r.Stats.Cycles, r.Stats.L1.Misses(0), r.Stats.LoadsForwarded())
			}
		}
		if len(errs) > 0 {
			fmt.Fprintf(os.Stderr, "memfwd-sim: %d cell(s) incomplete\n", len(errs))
			os.Exit(1)
		}
		return
	}

	var tierSpec *mem.TierConfig
	if *tiers >= 2 {
		tierSpec = mem.DefaultTierConfig(*tiers, sim.DefaultConfig().MemLatency)
	}
	mc := memfwd.MachineConfig{
		LineSize:          *line,
		PerfectForwarding: *perfect,
		Tiers:             tierSpec,
	}
	if *harts > 1 {
		mc.Harts = *harts
	}
	m := memfwd.NewMachine(mc)

	// Event tracing: one tracer can feed several sinks.
	var sinks []memfwd.TraceSink
	var files []*os.File
	openSink := func(path string, mk func(f *os.File) memfwd.TraceSink) {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memfwd-sim:", err)
			os.Exit(1)
		}
		files = append(files, f)
		sinks = append(sinks, mk(f))
	}
	if *tracePath != "" {
		openSink(*tracePath, func(f *os.File) memfwd.TraceSink { return memfwd.NewNDJSONSink(f) })
	}
	if *perfettoPath != "" {
		openSink(*perfettoPath, func(f *os.File) memfwd.TraceSink { return memfwd.NewPerfettoSink(f) })
	}
	var telSrv *memfwd.TelemetryServer
	if *httpAddr != "" {
		plane, err := memfwd.BootTelemetry(*httpAddr, *httpLinger, logTelemetry)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memfwd-sim:", err)
			os.Exit(1)
		}
		// The plane owns the whole lifecycle: the final publish happens
		// before this deferred Shutdown runs (defers are LIFO and the
		// publish is inline below), so the linger serves end state, and
		// a second Shutdown anywhere could never linger again.
		defer plane.Shutdown()
		telSrv = plane.Server()
	}

	var series *memfwd.SampleSeries
	if *sampleEvery > 0 {
		series = &memfwd.SampleSeries{Every: *sampleEvery}
		m.SetSampleEvery(*sampleEvery, series)
	}

	reg := memfwd.NewMetricsRegistry()
	m.RegisterMetrics(reg)

	var heat *memfwd.HeatMap
	if *heatTop > 0 || *attrCSV != "" || *attrJSON != "" || telSrv != nil || tierSpec != nil {
		// The migrator refuses to demote blocks the heat map does not
		// track, so with -tiers the table must cover the whole heap,
		// not just a telemetry-sized hot set.
		heatObjs := 0
		if tierSpec != nil {
			heatObjs = tier.HeatObjects
		}
		heat = memfwd.NewHeatMap(heatObjs, 0)
		m.SetHeatMap(heat)
		heat.RegisterMetrics(reg)
	}
	var spans *memfwd.SpanTable
	if *relocReport || telSrv != nil {
		spans = memfwd.NewSpanTable(0)
		m.SetSpans(spans)
		spans.RegisterMetrics(reg)
	}

	var prof *memfwd.Profiler
	if *profile || *attrCSV != "" || *attrJSON != "" {
		prof = memfwd.AttachProfiler(m)
		prof.RegisterMetrics(reg)
		if *attrCSV != "" || *attrJSON != "" {
			prof.EnableAttribution()
		}
	}

	// With the telemetry plane on, Watch builds the tracer over the hub
	// and the sinks, and publishes the registry, heat map, spans and
	// series at sampler cadence from this goroutine (none of them is
	// thread-safe, so the server never reads them live).
	var tracer *memfwd.Tracer
	publish := func() {}
	if telSrv != nil {
		tracer, publish = telSrv.Watch(m, series, reg, sinks...)
	} else if len(sinks) > 0 {
		tracer = memfwd.NewTracer(memfwd.MultiSink(sinks...), 0)
		m.SetTracer(tracer)
	}
	if *faultSpec != "" {
		fseed := *faultSeed
		if fseed == 0 {
			fseed = *seed
		}
		inj, err := fault.NewFromSpec(fseed, *faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memfwd-sim:", err)
			os.Exit(2)
		}
		m.SetFaultInjector(inj)
	}

	// The guest runs on the machine directly, or wrapped: with -harts,
	// the scheduling group interleaves relocator harts against the
	// guest's operations; with -tiers, the migrator daemon sits
	// outermost, so its migrations hit the group's relocation barrier
	// like any other agent's. Sharing the machine's heat map gives the
	// daemon full trap-cost and hop attribution.
	var guest app.Machine = m
	var grp *sched.Group
	if *harts > 1 {
		sseed := *schedSeed
		if sseed == 0 {
			sseed = *seed
		}
		var err error
		grp, err = sched.New(m, sched.Config{Harts: *harts, Seed: sseed})
		if err != nil {
			fmt.Fprintln(os.Stderr, "memfwd-sim:", err)
			os.Exit(2)
		}
		guest = grp
	}
	var daemon *tier.Daemon
	if tierSpec != nil {
		daemon = tier.New(guest, tier.Config{
			Tiers:    tierSpec,
			Seed:     *seed,
			Every:    *migrateEvery,
			FastFrac: *fastFrac,
			OneShot:  *tierStatic,
			Heat:     heat,
		})
		daemon.RegisterMetrics(reg)
		guest = daemon
	}

	// The run goes through the hardened engine even as a single job, so
	// an injected crash, a hung workload, or a timeout is reported as a
	// structured reason instead of killing the process.
	var res memfwd.AppResult
	appCfg := memfwd.AppConfig{
		Opt:           *optOn,
		Prefetch:      *prefetch,
		PrefetchBlock: *block,
		Seed:          *seed,
		Scale:         *scale,
	}
	spec := exp.Spec{App: a.Name, Line: *line, Variant: string(variantOf(*optOn, *prefetch, *perfect))}
	_, jobErrs := exp.RunChecked(
		exp.Config{Jobs: 1, JobTimeout: *timeout},
		[]exp.Spec{spec},
		func(int, exp.Spec) struct{} {
			res = a.Run(guest, appCfg)
			return struct{}{}
		})
	if len(jobErrs) > 0 {
		fmt.Fprintf(os.Stderr, "memfwd-sim: run incomplete: %s\n", jobErrs[0].Reason())
		os.Exit(1)
	}
	if grp != nil {
		grp.Quiesce()
		grp.Close()
	}
	st := m.Finalize()
	publish() // final snapshots: the lingering server serves end state

	if err := tracer.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "memfwd-sim: trace:", err)
		os.Exit(1)
	}
	for _, f := range files {
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "memfwd-sim:", err)
			os.Exit(1)
		}
	}

	if *sampleCSV != "" && series != nil {
		f, err := os.Create(*sampleCSV)
		if err == nil {
			err = series.WriteCSV(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "memfwd-sim: sample-csv:", err)
			os.Exit(1)
		}
	}

	if *attrCSV != "" {
		if err := writeFile(*attrCSV, prof.WriteAttributionCSV); err != nil {
			fmt.Fprintln(os.Stderr, "memfwd-sim: attr-csv:", err)
			os.Exit(1)
		}
	}
	if *attrJSON != "" {
		if err := writeFile(*attrJSON, prof.WriteAttributionJSON); err != nil {
			fmt.Fprintln(os.Stderr, "memfwd-sim: attr-json:", err)
			os.Exit(1)
		}
	}

	if *asJSON {
		run := memfwd.Run{
			App:     a.Name,
			Line:    *line,
			Variant: variantOf(*optOn, *prefetch, *perfect),
			Block:   blockOf(*prefetch, *block),
			Stats:   st,
			Result:  res,
		}
		if series != nil {
			run.Samples = series.Samples
		}
		if grp != nil {
			gs := grp.Stats()
			run.Sched = &gs
		}
		if daemon != nil {
			ds := daemon.Stats()
			run.Tier = &ds
		}
		if err := memfwd.WriteJSON(os.Stdout, run); err != nil {
			fmt.Fprintln(os.Stderr, "memfwd-sim:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("app=%s line=%dB opt=%v prefetch=%v(block %d) seed=%d scale=%d\n",
		a.Name, *line, *optOn, *prefetch, *block, *seed, *scale)
	fmt.Printf("checksum            %d\n", res.Checksum)
	fmt.Printf("cycles              %d\n", st.Cycles)
	fmt.Printf("instructions        %d (loads %d, stores %d)\n", st.Instructions, st.Loads, st.Stores)
	fmt.Printf("slots busy/ld/st/in %d / %d / %d / %d\n", st.Slots[0], st.Slots[1], st.Slots[2], st.Slots[3])
	fmt.Printf("L1 load misses      %d (partial %d, full %d)\n",
		st.L1.Misses(0), st.L1.PartialMisses[0], st.L1.FullMisses[0])
	fmt.Printf("L1 store misses     %d\n", st.L1.Misses(1))
	fmt.Printf("L2 misses           %d\n", st.L2.Misses(0)+st.L2.Misses(1))
	fmt.Printf("bandwidth L1<->L2   %d bytes\n", st.BytesL1L2)
	fmt.Printf("bandwidth L2<->mem  %d bytes\n", st.BytesL2Mem)
	fmt.Printf("loads forwarded     %d (%.2f%%), stores forwarded %d (%.2f%%)\n",
		st.LoadsForwarded(), 100*float64(st.LoadsForwarded())/float64(st.Loads),
		st.StoresForwarded(), 100*float64(st.StoresForwarded())/float64(st.Stores))
	fmt.Printf("dep speculation     %d violations, %d bypasses\n", st.DepViolations, st.DepBypasses)
	fmt.Printf("relocated objects   %d, space overhead %d bytes\n", res.Relocated, res.SpaceOverhead)
	fmt.Printf("heap peak           %d bytes, pages touched %d\n", st.HeapPeak, st.PagesTouched)
	if grp != nil {
		gs := grp.Stats()
		fmt.Printf("scheduling          %d harts, %d steps, %d relocations committed (%d faulted, %d crashes, %d scavenges), %d barrier drains\n",
			*harts, gs.Steps, gs.Relocations, gs.Faulted, gs.Crashes, gs.Scavenges, gs.Drains)
	}
	if daemon != nil {
		ds := daemon.Stats()
		fmt.Printf("tiering             %d wakes, %d placed, %d demoted (%d B), %d spilled (%d B), %d promoted, %d repaired, near hit rate %.2f%%\n",
			ds.Wakes, ds.Placed, ds.Demotions, ds.DemotedBytes, ds.Spills, ds.SpilledBytes, ds.Promotions, ds.Repaired, 100*ds.HitRate(0))
	}
	if tracer != nil {
		fmt.Printf("trace events        %d\n", tracer.Emitted())
	}
	if series != nil {
		fmt.Println()
		fmt.Println(series.Table())
	}
	if *metrics {
		fmt.Println()
		fmt.Println(reg.Table())
	}
	if prof != nil {
		fmt.Println()
		fmt.Println(prof.Report())
	}
	if *heatTop > 0 {
		fmt.Println()
		fmt.Println(heat.Report(*heatTop))
	}
	if *relocReport {
		fmt.Println()
		fmt.Println(spans.Report())
	}
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// logTelemetry routes plane lifecycle lines (bound address, linger
// notice) to stderr with the command prefix.
func logTelemetry(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "memfwd-sim: "+format+"\n", args...)
}

// variantOf maps the flag combination onto the paper's bar names.
func variantOf(opt, prefetch, perfect bool) memfwd.Variant {
	switch {
	case perfect:
		return memfwd.VariantPerf
	case opt && prefetch:
		return memfwd.VariantLP
	case opt:
		return memfwd.VariantL
	case prefetch:
		return memfwd.VariantNP
	default:
		return memfwd.VariantN
	}
}

// blockOf reports the prefetch block only when prefetching is on,
// matching how the experiment harness fills Run.Block.
func blockOf(prefetch bool, block int) int {
	if !prefetch {
		return 0
	}
	return block
}

// parseLines parses the -lines argument ("32,64,128").
func parseLines(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -lines value %q (want comma-separated positive sizes)", part)
		}
		out = append(out, n)
	}
	return out, nil
}
