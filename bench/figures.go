package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"memfwd"
	"memfwd/internal/figures"
)

// figuresWorkload runs the figure suite behind "figures -json": the
// Figure 5/6, 7 and 10 matrices and the tiering experiment, through the
// four memfwd runners with an engine Progress and JobTracer attached,
// and rebuilds the JSON document figures.Run writes.
type figuresWorkload struct {
	o  options
	sz sizes

	plainSHA string // digest of the untraced phase's document
}

func (w *figuresWorkload) prepare(*result) error {
	for _, s := range w.sz.Sections {
		if !figures.Known(s) {
			return fmt.Errorf("unknown figure section %q", s)
		}
	}
	if n := len(w.sz.Sections); n != 1 && n != len(suiteSections) {
		return fmt.Errorf("sections must be one experiment or the whole suite, got %v", w.sz.Sections)
	}
	return nil
}

// suiteSections are the experiments of the -json suite, in its order.
var suiteSections = []string{"fig5", "fig7", "fig10", "tier"}

// boot warms the pipeline up with its smallest experiment, through
// figures.Run as the figures command calls it.
func (w *figuresWorkload) boot() error {
	return figures.Run(figures.Config{Only: "fig10", JSON: true, Seed: w.o.seed, Scale: w.sz.Scale, Jobs: w.sz.Jobs}, io.Discard, io.Discard)
}

func (w *figuresWorkload) teardown() {}

func (w *figuresWorkload) measure(r *result, traced bool) (*phase, error) {
	p := newPhase()
	progress := &memfwd.JobProgress{}
	var docs [][]byte
	start := time.Now()
	for i := 0; i < w.sz.Suites; i++ {
		doc, cells, err := w.suite(progress)
		if err != nil {
			return nil, err
		}
		docs = append(docs, doc)
		p.reqs = append(p.reqs, cells...)
	}
	p.wall = time.Since(start)
	p.counts["exp.cells"] = float64(progress.Done())
	r.attempted += progress.Done() + progress.Failed()
	var maxCell time.Duration
	for _, d := range p.reqs {
		maxCell = max(maxCell, d)
	}
	p.timings = append(p.timings,
		metric{"exp.cell_p50_s", percentile(p.reqs, 50) / 1e3, "s"},
		metric{"exp.cell_max_s", maxCell.Seconds(), "s"},
		metric{"exp.utilization", progress.Utilization(), "ratio"})

	sum := sha256.Sum256(docs[0])
	sha := hex.EncodeToString(sum[:])
	for i, d := range docs[1:] {
		r.check(bytes.Equal(d, docs[0]), "suite %d wrote a different document than suite 0", i+1)
	}
	if pin := cat.FiguresSHA256; w.o.seed == pin.Seed && len(w.sz.Sections) == len(suiteSections) && w.sz.Scale == 1 {
		r.check(sha == pin.SHA256, "figures JSON at seed %d has sha256 %s, pinned %s", pin.Seed, sha, pin.SHA256)
	}
	if traced {
		r.check(sha == w.plainSHA, "traced figures JSON differs from the untraced one")
	} else {
		w.plainSHA = sha
	}

	env, err := w.decode(docs[0])
	if err != nil {
		return nil, err
	}
	r.check(len(env.Incomplete) == 0, "incomplete cells: %v", env.Incomplete)
	sums := map[string]uint64{}
	for _, set := range []struct {
		fig  string
		runs []memfwd.Run
	}{{"fig5", env.Fig5}, {"fig7", env.Fig7}, {"fig10", env.Fig10}, {"tier", env.Tier}} {
		for _, run := range set.runs {
			if !r.check(run.Stats != nil && run.Incomplete == "", "%s %s/%d/%s has no stats (%s)", set.fig, run.App, run.Line, run.Variant, run.Incomplete) {
				continue
			}
			for range docs { // every suite wrote this same document
				p.addStats(run.Stats)
				p.ops += float64(run.Stats.Loads + run.Stats.Stores)
			}
			// Every variant of an app computes the same thing: layout,
			// prefetching, tiering and line size move only timing.
			if want, ok := sums[run.App]; ok {
				r.check(run.Result.Checksum == want, "%s %s/%d/%s checksum %#x, other variants %#x",
					set.fig, run.App, run.Line, run.Variant, run.Result.Checksum, want)
			} else {
				sums[run.App] = run.Result.Checksum
			}
		}
	}
	return p, nil
}

// suite runs the configured experiments once and returns the JSON
// document figures.Run would write for them, with each engine cell's
// wall time.
func (w *figuresWorkload) suite(progress *memfwd.JobProgress) ([]byte, []time.Duration, error) {
	var env figures.Envelope
	var cells []time.Duration
	var single []memfwd.Run
	for _, s := range w.sz.Sections {
		sink := &memfwd.MemorySink{}
		tr := memfwd.NewTracer(sink, 0)
		o := memfwd.Options{Seed: w.o.seed, Scale: w.sz.Scale, Jobs: w.sz.Jobs, Progress: progress, JobTracer: tr}
		var runs []memfwd.Run
		var errs []*memfwd.JobError
		switch s {
		case "fig5":
			lr := memfwd.RunLocality(o)
			runs, errs = lr.Runs, lr.Errs
			env.Fig5 = runs
		case "fig7":
			pr := memfwd.RunPrefetch(o)
			runs, errs = prefetchRuns(pr), pr.Errs
			env.Fig7 = runs
		case "fig10":
			sr := memfwd.RunSMV(o)
			runs, errs = []memfwd.Run{sr.N, sr.L, sr.Perf}, sr.Errs
			env.Fig10 = runs
		case "tier":
			tiers := memfwd.RunTiering(o)
			runs, errs = tiers.Runs, tiers.Errs
			env.Tier = runs
		default:
			return nil, nil, fmt.Errorf("section %q has no JSON runs", s)
		}
		for _, e := range errs {
			env.Incomplete = append(env.Incomplete, e.Spec.String()+": "+e.Reason())
		}
		if err := tr.Close(); err != nil {
			return nil, nil, err
		}
		cells = append(cells, cellTimes(sink.Events)...)
		single = runs
	}
	var buf bytes.Buffer
	var doc any = env
	if len(w.sz.Sections) == 1 {
		doc = single
	}
	if err := memfwd.WriteJSON(&buf, doc); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), cells, nil
}

// cellTimes pairs one engine run's phaseBegin/phaseEnd events (Cycle is
// wall-clock microseconds since the engine started, N the job index)
// into per-cell wall times.
func cellTimes(evs []memfwd.TraceEvent) []time.Duration {
	begin := map[uint64]int64{}
	var out []time.Duration
	for _, ev := range evs {
		switch ev.Kind {
		case memfwd.TracePhaseBegin:
			begin[ev.N] = ev.Cycle
		case memfwd.TracePhaseEnd:
			out = append(out, time.Duration(ev.Cycle-begin[ev.N])*time.Microsecond)
		}
	}
	return out
}

// prefetchRuns flattens the Figure 7 matrix the way figures.Run does:
// Table 1 app order, then N, NP, L, LP.
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

// decode reads a suite document back: the envelope, or the bare run
// array of a single experiment.
func (w *figuresWorkload) decode(doc []byte) (figures.Envelope, error) {
	var env figures.Envelope
	if len(w.sz.Sections) != 1 {
		return env, json.Unmarshal(doc, &env)
	}
	var runs []memfwd.Run
	if err := json.Unmarshal(doc, &runs); err != nil {
		return env, err
	}
	switch w.sz.Sections[0] {
	case "fig5":
		env.Fig5 = runs
	case "fig7":
		env.Fig7 = runs
	case "fig10":
		env.Fig10 = runs
	case "tier":
		env.Tier = runs
	}
	return env, nil
}
