// Package figures drives the figure/table pipeline behind cmd/figures:
// it validates the experiment selection, runs the selected experiments
// through the parallel engine, and writes tables or machine-readable
// JSON to the given writers. Keeping the logic here (instead of in the
// command's main) makes the selection rules and the JSON shapes
// testable.
package figures

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"memfwd"
)

// Names lists the known experiment selectors in output order.
var Names = []string{"table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "tier", "ext"}

// ErrIncomplete is wrapped by Run when one or more cells could not be
// completed (panic, timeout, cancellation). All completed output has
// already been written when it is returned — the suite degrades
// gracefully rather than dying — but callers must exit nonzero:
// cmd/figures distinguishes it from hard errors by errors.Is.
var ErrIncomplete = errors.New("figures: incomplete cells")

// Known reports whether name is a valid experiment selector.
func Known(name string) bool {
	for _, n := range Names {
		if n == name {
			return true
		}
	}
	return false
}

// Config selects what the pipeline runs and how.
type Config struct {
	Only   string // one experiment name, or "" for all
	JSON   bool   // emit raw runs as JSON instead of tables
	Seed   int64
	Scale  int
	Sample uint64 // sampler period in instructions (0 = off)
	Jobs   int    // experiment-engine workers (<= 0 = GOMAXPROCS)

	// JobTimeout bounds each cell's wall time (0 = unbounded); an
	// exceeding cell is reported incomplete and the rest still run.
	JobTimeout time.Duration

	// SuiteTimeout bounds the whole pipeline's wall time (0 =
	// unbounded); on expiry remaining cells are reported incomplete.
	SuiteTimeout time.Duration

	// Fault arms a deterministic fault injector on matching cells
	// ("kind@point[:visit]", see internal/fault); FaultCell restricts it
	// to cells whose label contains the substring, FaultSeed seeds the
	// corruption stream (0 takes Seed).
	Fault     string
	FaultCell string
	FaultSeed int64

	// Harts runs every cell's guest with that many harts under the
	// deterministic relocator-hart scheduler (internal/sched); SchedSeed
	// seeds the interleaving (0 takes Seed). Harts <= 1 leaves the
	// pipeline byte-identical to the single-hart runner.
	Harts     int
	SchedSeed int64

	// HTTPAddr, when non-empty, serves the live telemetry plane while
	// the suite runs: engine progress on /metrics, per-cell heat maps,
	// relocation spans, and the /events stream. Purely additive — all
	// stdout output (tables and JSON) is byte-identical with it on.
	HTTPAddr string
}

// Envelope is the aggregated JSON document emitted when Config.JSON is
// set and no single experiment is selected: one top-level object keyed
// by figure name, instead of the concatenated per-figure documents the
// pipeline used to produce (which no JSON parser would accept as one
// input). fig5 carries the locality matrix that also backs fig6; the
// experiments with no run series (table1, fig8, fig9, ext) have no key.
// Struct field order fixes the key order, so the document is
// byte-stable. Incomplete appears only when cells failed, listing each
// as "label: reason" in deterministic order.
type Envelope struct {
	Fig5       []memfwd.Run `json:"fig5"`
	Fig7       []memfwd.Run `json:"fig7"`
	Fig10      []memfwd.Run `json:"fig10"`
	Tier       []memfwd.Run `json:"tier"`
	Incomplete []string     `json:"incomplete,omitempty"`
}

// Run executes the selected experiments, writing tables or JSON to
// stdout and progress to stderr. An unknown Config.Only is an error and
// runs nothing. With JSON set, stdout receives exactly one JSON
// document: the legacy bare run array when one experiment is selected,
// the Envelope when all run. When cells fail, all completed output is
// still written (failed cells carry explicit "incomplete" markers) and
// the return wraps ErrIncomplete.
func Run(cfg Config, stdout, stderr io.Writer) error {
	if cfg.Only != "" && !Known(cfg.Only) {
		return fmt.Errorf("unknown experiment %q (valid: %s)", cfg.Only, strings.Join(Names, ", "))
	}
	o := memfwd.Options{
		Seed:        cfg.Seed,
		Scale:       cfg.Scale,
		SampleEvery: cfg.Sample,
		Jobs:        cfg.Jobs,
		JobTimeout:  cfg.JobTimeout,
		Fault:       cfg.Fault,
		FaultCell:   cfg.FaultCell,
		FaultSeed:   cfg.FaultSeed,
		Harts:       cfg.Harts,
		SchedSeed:   cfg.SchedSeed,
	}
	if cfg.SuiteTimeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.SuiteTimeout)
		defer cancel()
		o.Ctx = ctx
	}
	if cfg.HTTPAddr != "" {
		plane, err := memfwd.BootTelemetry(cfg.HTTPAddr, 0, func(format string, args ...any) {
			fmt.Fprintf(stderr, "[figures] "+format+"\n", args...)
		})
		if err != nil {
			return err
		}
		defer plane.Shutdown()
		srv := plane.Server()
		o.Telemetry = srv
		o.Progress = &memfwd.JobProgress{}
		// The registry holds only JobProgress views, which are
		// thread-safe, so snapshotting it from the plane's publisher
		// goroutine is sound (registration happens before it starts).
		reg := memfwd.NewMetricsRegistry()
		o.Progress.RegisterMetrics(reg)
		plane.StartPublisher(250*time.Millisecond, func() {
			srv.PublishMetrics(reg.Snapshot())
		})
	}
	want := func(name string) bool { return cfg.Only == "" || cfg.Only == name }
	section := func(name string) { fmt.Fprintf(stderr, "[figures] running %s...\n", name) }
	emit := func(v any) error { return memfwd.WriteJSON(stdout, v) }
	aggregate := cfg.JSON && cfg.Only == ""
	var env Envelope

	// incomplete accumulates "label: reason" lines across the whole
	// pipeline. Engine errors arrive in spec-index order and the
	// sections run in a fixed sequence, so the list is deterministic at
	// any worker count.
	var incomplete []string
	collect := func(errs []*memfwd.JobError) {
		for _, e := range errs {
			incomplete = append(incomplete, e.Spec.String()+": "+e.Reason())
		}
	}

	start := time.Now()
	if aggregate {
		fmt.Fprintln(stderr, "[figures] -json: table-only experiments (table1, fig8, fig9, ext) are omitted from the JSON document")
	}

	if want("table1") && !aggregate {
		section("table1")
		tab, errs := memfwd.RunTable1(o)
		collect(errs)
		fmt.Fprintln(stdout, tab)
	}

	if want("fig5") || want("fig6") {
		section("fig5/fig6")
		lr := memfwd.RunLocality(o)
		collect(lr.Errs)
		switch {
		case aggregate:
			env.Fig5 = lr.Runs
		case cfg.JSON:
			if err := emit(lr.Runs); err != nil {
				return err
			}
		default:
			if want("fig5") {
				fmt.Fprintln(stdout, lr.Figure5Table())
			}
			if want("fig6") {
				fmt.Fprintln(stdout, lr.Figure6aTable())
				fmt.Fprintln(stdout, lr.Figure6bTable())
			}
		}
	}

	if want("fig7") {
		section("fig7")
		pr := memfwd.RunPrefetch(o)
		collect(pr.Errs)
		switch {
		case aggregate:
			env.Fig7 = prefetchRuns(pr)
		case cfg.JSON:
			if err := emit(prefetchRuns(pr)); err != nil {
				return err
			}
		default:
			fmt.Fprintln(stdout, pr.Table())
		}
	}

	if want("fig8") && !aggregate {
		section("fig8")
		fmt.Fprintln(stdout, memfwd.Figure8Layout())
	}

	if want("fig9") && !aggregate {
		section("fig9")
		fmt.Fprintln(stdout, memfwd.Figure9Layout(128))
	}

	if want("fig10") {
		section("fig10")
		sr := memfwd.RunSMV(o)
		collect(sr.Errs)
		runs := []memfwd.Run{sr.N, sr.L, sr.Perf}
		switch {
		case aggregate:
			env.Fig10 = runs
		case cfg.JSON:
			if err := emit(runs); err != nil {
				return err
			}
		default:
			for _, t := range sr.Tables() {
				fmt.Fprintln(stdout, t)
			}
		}
	}

	if want("tier") {
		section("tier")
		tr := memfwd.RunTiering(o)
		collect(tr.Errs)
		switch {
		case aggregate:
			env.Tier = tr.Runs
		case cfg.JSON:
			if err := emit(tr.Runs); err != nil {
				return err
			}
		default:
			fmt.Fprintln(stdout, tr.Table())
		}
	}

	if want("ext") && !aggregate {
		section("ext (false sharing)")
		tab, errs := memfwd.RunFalseSharing(o)
		collect(errs)
		fmt.Fprintln(stdout, tab)
	}

	if aggregate {
		env.Incomplete = incomplete
		if err := emit(env); err != nil {
			return err
		}
	}

	fmt.Fprintf(stderr, "[figures] done in %s\n", time.Since(start).Round(time.Millisecond))
	if len(incomplete) > 0 {
		for _, l := range incomplete {
			fmt.Fprintf(stderr, "[figures] incomplete: %s\n", l)
		}
		return fmt.Errorf("%w: %d cell(s)", ErrIncomplete, len(incomplete))
	}
	return nil
}

// prefetchRuns flattens the Figure 7 matrix deterministically (Table 1
// app order, then N/NP/L/LP), replacing the old map-iteration emission
// whose order varied from run to run.
func prefetchRuns(pr *memfwd.PrefetchRuns) []memfwd.Run {
	var out []memfwd.Run
	for _, a := range memfwd.Apps() {
		rs, ok := pr.Runs[a.Name]
		if !ok {
			continue
		}
		for _, v := range []memfwd.Variant{memfwd.VariantN, memfwd.VariantNP, memfwd.VariantL, memfwd.VariantLP} {
			out = append(out, rs[v])
		}
	}
	return out
}
