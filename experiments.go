package memfwd

import (
	"context"
	"fmt"
	"strings"
	"time"

	"memfwd/internal/exp"
	"memfwd/internal/fault"
	"memfwd/internal/mem"
	"memfwd/internal/obs"
	"memfwd/internal/opt"
	"memfwd/internal/report"
	"memfwd/internal/sched"
	"memfwd/internal/telemetry"
	"memfwd/internal/tier"
)

// Variant names one bar of the paper's figures.
type Variant string

// The run variants used across the evaluation figures.
const (
	VariantN    Variant = "N"    // original layout
	VariantL    Variant = "L"    // locality-optimized layout
	VariantNP   Variant = "NP"   // original + software prefetch
	VariantLP   Variant = "LP"   // optimized + software prefetch
	VariantPerf Variant = "Perf" // optimized + perfect forwarding

	// The tiering experiment's variants (RunTiering).
	VariantFlat     Variant = "Flat"     // untiered machine: all memory near
	VariantStatic   Variant = "Static"   // 2 tiers, one-shot static placement pass
	VariantAdaptive Variant = "Adaptive" // 2 tiers, online adaptive migrator
)

// TierStats is the migrator daemon's accounting, attached to tiered
// runs (Run.Tier).
type TierStats = tier.Stats

// SchedStats is the multi-hart scheduling group's accounting, attached
// to runs executed with Options.Harts > 1 (Run.Sched).
type SchedStats = sched.Stats

// Run is one measured application execution. The struct is
// JSON-encodable so harnesses can export raw series
// (cmd/figures -json).
type Run struct {
	App     string
	Line    int
	Variant Variant
	Block   int `json:",omitempty"` // prefetch block size in lines
	Stats   *Stats
	Result  AppResult
	// Samples is the sampler time-series, present only when the run was
	// executed with Options.SampleEvery > 0 (or memfwd-sim
	// -sample-every); omitted from JSON otherwise, so existing encodings
	// are unchanged.
	Samples []Sample `json:",omitempty"`

	// Tier is the migrator daemon's accounting, present only on tiered
	// runs (RunTiering's tiered variants, memfwd-sim -tiers); omitted
	// from JSON otherwise, so existing encodings are unchanged.
	Tier *TierStats `json:",omitempty"`

	// Sched is the scheduling group's accounting, present only when the
	// run executed with Options.Harts > 1; omitted from JSON otherwise,
	// so existing encodings are unchanged.
	Sched *SchedStats `json:",omitempty"`

	// Incomplete, when non-empty, marks a cell the engine could not
	// finish (panic, timeout, cancellation, error) with its
	// deterministic one-line reason; Stats and Result are then absent.
	// Completed cells never carry it, so existing JSON is unchanged.
	Incomplete string `json:",omitempty"`
}

// Speedup returns base.Cycles / r.Cycles, or 0 when either side has no
// cycles (missing stats or an empty run) — never NaN or +Inf.
func (r Run) Speedup(base Run) float64 {
	if r.Stats == nil || base.Stats == nil || r.Stats.Cycles == 0 {
		return 0
	}
	return float64(base.Stats.Cycles) / float64(r.Stats.Cycles)
}

// Options parameterizes the experiment runners.
type Options struct {
	Seed   int64
	Scale  int
	Lines  []int // cache line sizes for the sweep
	Blocks []int // prefetch block sizes to sweep (best is reported)

	// SampleEvery, when > 0, attaches the observability sampler to each
	// run: a time-series point every N graduated instructions (plus one
	// at every phase boundary), returned in Run.Samples.
	SampleEvery uint64

	// Jobs is the experiment-engine worker count; <= 0 takes GOMAXPROCS.
	// Every cell of a run matrix builds its own Machine, so cells execute
	// concurrently; results are byte-identical at any value.
	Jobs int

	// Progress, when non-nil, observes the engine live: jobs queued /
	// running / done and per-cell wall time (JobProgress.RegisterMetrics
	// exposes it on a metrics registry).
	Progress *JobProgress

	// JobTracer, when non-nil, receives one phaseBegin/phaseEnd trace
	// event pair per experiment cell, timestamped in wall-clock
	// microseconds — a Perfetto sink renders the pool as a span timeline.
	JobTracer *Tracer

	// Ctx, when non-nil, cancels a whole suite; a context.WithDeadline
	// is the per-suite deadline. Cells not yet started when it fires are
	// marked Incomplete ("canceled") without running.
	Ctx context.Context

	// JobTimeout, when > 0, bounds each cell's wall time; an exceeding
	// cell is marked Incomplete ("timeout") and the rest still complete.
	JobTimeout time.Duration

	// Fault, when non-empty, arms a deterministic fault injector on
	// matching cells, in the grammar of fault.ParseSpec:
	// "kind@point[:visit]", e.g. "flipbit@relocate.copy-write:3".
	Fault string

	// FaultCell restricts Fault to cells whose label
	// (exp.Spec.String(), e.g. "health/line32/L") contains this
	// substring; empty arms every cell.
	FaultCell string

	// FaultSeed seeds the injector's corruption stream; 0 takes Seed.
	FaultSeed int64

	// Harts, when > 1, builds every cell's machine with that many harts
	// and runs the guest inside a deterministic scheduling group
	// (internal/sched): harts 1..Harts-1 are relocator harts racing the
	// guest's loads and stores with concurrent relocations, interleaved
	// at word-access granularity under SchedSeed. App checksums and heap
	// digests are unchanged by construction (the forwarding safety
	// argument); timing moves. Harts <= 1 leaves every code path
	// byte-identical to the single-hart runner.
	Harts int

	// SchedSeed seeds the scheduling group's interleaving; 0 takes Seed.
	SchedSeed int64

	// Telemetry, when non-nil, makes every cell observable on the live
	// HTTP plane: each cell's machine gets a tracer feeding the
	// server's event hub (filtered to structural events so cache-miss
	// volume cannot flood the stream), a heat map, and a relocation
	// span table, with snapshots published at sampler cadence. Purely
	// additive: Run results and figure outputs are unchanged.
	Telemetry *telemetry.Server
}

// Norm applies the defaults used throughout the paper's evaluation.
func (o Options) Norm() Options {
	if o.Seed == 0 {
		o.Seed = 9
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if len(o.Lines) == 0 {
		o.Lines = []int{32, 64, 128}
	}
	if len(o.Blocks) == 0 {
		o.Blocks = []int{1, 2, 4, 8}
	}
	return o
}

// engine translates the options into an engine configuration.
func (o Options) engine() exp.Config {
	return exp.Config{
		Jobs:       o.Jobs,
		Tracer:     o.JobTracer,
		Progress:   o.Progress,
		Ctx:        o.Ctx,
		JobTimeout: o.JobTimeout,
	}
}

// armFault builds the injector for one cell, or nil when Options.Fault
// is unset or the cell label does not contain Options.FaultCell. A
// malformed spec panics: it is a harness configuration error, caught
// before any cell runs by the cmd flag parsing.
func (o Options) armFault(s exp.Spec) *fault.Injector {
	if o.Fault == "" {
		return nil
	}
	if o.FaultCell != "" && !strings.Contains(s.String(), o.FaultCell) {
		return nil
	}
	seed := o.FaultSeed
	if seed == 0 {
		seed = o.Seed
	}
	inj, err := fault.NewFromSpec(seed, o.Fault)
	if err != nil {
		panic(fmt.Sprintf("memfwd: bad fault spec %q: %v", o.Fault, err))
	}
	return inj
}

// runEngine is the resilient engine entry shared by the runners: it
// executes the matrix through exp.RunChecked and converts each JobError
// into a placeholder Run carrying the deterministic Incomplete reason,
// so tables and JSON keep their shape when cells fail.
func runEngine(o Options, specs []exp.Spec, f func(i int, s exp.Spec) Run) ([]Run, []*exp.JobError) {
	runs, errs := exp.RunChecked(o.engine(), specs, f)
	for _, e := range errs {
		runs[e.Index] = Run{
			App:        e.Spec.App,
			Line:       e.Spec.Line,
			Variant:    Variant(e.Spec.Variant),
			Block:      e.Spec.Block,
			Incomplete: e.Reason(),
		}
	}
	return runs, errs
}

// localityApps are the seven applications of Figure 5 (SMV is studied
// separately in Figure 10).
func localityApps() []App {
	var out []App
	for _, a := range apps {
		if a.Name != "smv" {
			out = append(out, a)
		}
	}
	return out
}

// RunOne executes one (app, line, variant) cell and returns its Run.
// The guest runs on the machine wrapped in the agents the cell asks for
// (NewStack, as memfwd-sim wraps it): relocator harts with
// Options.Harts > 1, and on the tiering variants' 2-tier machine the
// migrator daemon; Static and Adaptive differ only in the daemon's
// one-shot mode.
func RunOne(a App, line int, v Variant, block int, o Options) Run {
	o = o.Norm()
	mc := MachineConfig{LineSize: line}
	if o.Harts > 1 {
		mc.Harts = o.Harts
	}
	cfg := AppConfig{Seed: o.Seed, Scale: o.Scale}
	switch v {
	case VariantL:
		cfg.Opt = true
	case VariantNP:
		cfg.Prefetch = true
		cfg.PrefetchBlock = block
	case VariantLP:
		cfg.Opt = true
		cfg.Prefetch = true
		cfg.PrefetchBlock = block
	case VariantPerf:
		cfg.Opt = true
		mc.PerfectForwarding = true
	case VariantStatic, VariantAdaptive:
		mc.Tiers = mem.DefaultTierConfig(2, DefaultMachineConfig().MemLatency)
	}
	m := NewMachine(mc)
	if inj := o.armFault(exp.Spec{App: a.Name, Line: line, Variant: string(v), Block: block}); inj != nil {
		m.SetFaultInjector(inj)
	}
	var series *SampleSeries
	if o.SampleEvery > 0 {
		series = &SampleSeries{Every: o.SampleEvery}
		m.SetSampleEvery(o.SampleEvery, series)
	}
	if o.Telemetry != nil {
		// Watch would add this table after the stack is built, too late
		// for the relocator harts, which record into the one present at
		// construction.
		m.SetSpans(obs.NewSpanTable(0))
	}
	schedSeed := o.SchedSeed
	if schedSeed == 0 {
		schedSeed = o.Seed
	}
	stk, err := NewStack(m, m, sched.Config{Harts: o.Harts, Seed: schedSeed},
		tier.Config{Tiers: mc.Tiers, Seed: o.Seed, OneShot: v == VariantStatic}, 0, 0)
	if err != nil {
		// A harness configuration error, like a malformed fault spec:
		// the cmd flag parsing validates -harts before any cell runs.
		panic(fmt.Sprintf("memfwd: bad hart count %d: %v", o.Harts, err))
	}
	if t := o.Telemetry; t != nil {
		lt, _ := t.Watch(m, series, nil)
		// Cells run concurrently into one hub: structural events only,
		// so cache-miss volume cannot flood the stream.
		lt.EnableOnly(obs.KAlloc, obs.KFree, obs.KRelocate, obs.KTrap,
			obs.KPhaseBegin, obs.KPhaseEnd, obs.KSpanBegin, obs.KSpanEnd)
		defer lt.Close() // flushes into the hub, which stays open
	}
	res := stk.Run(a, cfg)
	r := Run{App: a.Name, Line: line, Variant: v, Block: block, Stats: m.Finalize(), Result: res}
	r.Sched, r.Tier = stk.Stats()
	if series != nil {
		r.Samples = series.Samples
	}
	return r
}

// LocalityRuns is the Figure 5/6 measurement matrix: the seven locality
// applications, each at every line size, unoptimized and optimized.
type LocalityRuns struct {
	Lines []int
	Runs  []Run

	// Errs lists the cells the engine could not complete (their Runs
	// entries carry the matching Incomplete marker); empty on a clean
	// suite.
	Errs []*exp.JobError

	index map[runKey]int // (app, line, variant) -> Runs position
}

// incompleteCell renders the table marker for a cell the engine could
// not finish.
func incompleteCell(r Run) string {
	if r.Incomplete == "" {
		return "incomplete"
	}
	return "incomplete: " + r.Incomplete
}

type runKey struct {
	app  string
	line int
	v    Variant
}

func (lr *LocalityRuns) buildIndex() {
	lr.index = make(map[runKey]int, len(lr.Runs))
	for i, r := range lr.Runs {
		lr.index[runKey{r.App, r.Line, r.Variant}] = i
	}
}

// Get returns the run for (app, line, variant).
func (lr *LocalityRuns) Get(appName string, line int, v Variant) (Run, bool) {
	if lr.index == nil {
		lr.buildIndex()
	}
	i, ok := lr.index[runKey{appName, line, v}]
	if !ok {
		return Run{}, false
	}
	return lr.Runs[i], true
}

// RunLocality executes the full matrix behind Figures 5, 6(a) and 6(b).
func RunLocality(o Options) *LocalityRuns {
	o = o.Norm()
	lr := &LocalityRuns{Lines: o.Lines}
	var specs []exp.Spec
	for _, a := range localityApps() {
		for _, line := range o.Lines {
			for _, v := range []Variant{VariantN, VariantL} {
				specs = append(specs, exp.Spec{App: a.Name, Line: line, Variant: string(v)})
			}
		}
	}
	lr.Runs, lr.Errs = runEngine(o, specs, func(_ int, s exp.Spec) Run {
		return RunOne(MustApp(s.App), s.Line, Variant(s.Variant), 0, o)
	})
	lr.buildIndex()
	return lr
}

// Figure5Table renders execution time decomposed into the paper's four
// graduation-slot categories, normalized to each app's N case at the
// smallest line size, with the per-line-size speedup of L over N.
func (lr *LocalityRuns) Figure5Table() *report.Table {
	t := report.New(
		"Figure 5: execution time of locality optimizations (normalized slots; speedup = N/L per line size)",
		"app", "line", "case", "norm.time", "busy", "load stall", "store stall", "inst stall", "speedup")
	for _, a := range localityApps() {
		base, _ := lr.Get(a.Name, lr.Lines[0], VariantN)
		var baseSlots float64
		if base.Stats != nil {
			baseSlots = float64(base.Stats.Cycles) * 4
		}
		for _, line := range lr.Lines {
			n, _ := lr.Get(a.Name, line, VariantN)
			l, _ := lr.Get(a.Name, line, VariantL)
			for _, r := range []Run{n, l} {
				if r.Stats == nil {
					t.Add(a.Name, fmt.Sprint(line), string(r.Variant),
						incompleteCell(r), "", "", "", "", "")
					continue
				}
				sp := ""
				if r.Variant == VariantL {
					if s := l.Speedup(n); s == 0 {
						sp = "n/a"
					} else {
						sp = fmt.Sprintf("(%+.0f%%)", 100*(s-1))
					}
				}
				t.Add(a.Name, fmt.Sprint(line), string(r.Variant),
					report.Ratio(float64(r.Stats.Cycles)*4, baseSlots),
					report.Ratio(float64(r.Stats.Slots[0]), baseSlots),
					report.Ratio(float64(r.Stats.Slots[1]), baseSlots),
					report.Ratio(float64(r.Stats.Slots[2]), baseSlots),
					report.Ratio(float64(r.Stats.Slots[3]), baseSlots),
					sp)
			}
		}
	}
	return t
}

// Figure6aTable renders load D-cache misses, split into partial and
// full misses, normalized to the N case at the smallest line size.
func (lr *LocalityRuns) Figure6aTable() *report.Table {
	t := report.New(
		"Figure 6(a): load D-cache misses (normalized to N at smallest line)",
		"app", "line", "case", "norm.misses", "partial", "full")
	for _, a := range localityApps() {
		base, _ := lr.Get(a.Name, lr.Lines[0], VariantN)
		var bm float64
		if base.Stats != nil {
			bm = float64(base.Stats.L1.Misses(0))
		}
		for _, line := range lr.Lines {
			for _, v := range []Variant{VariantN, VariantL} {
				r, _ := lr.Get(a.Name, line, v)
				if r.Stats == nil {
					t.Add(a.Name, fmt.Sprint(line), string(v), incompleteCell(r), "", "")
					continue
				}
				t.Add(a.Name, fmt.Sprint(line), string(v),
					report.Ratio(float64(r.Stats.L1.Misses(0)), bm),
					report.Ratio(float64(r.Stats.L1.PartialMisses[0]), bm),
					report.Ratio(float64(r.Stats.L1.FullMisses[0]), bm))
			}
		}
	}
	return t
}

// Figure6bTable renders memory-hierarchy bandwidth: bytes moved between
// the primary and secondary caches and between the secondary cache and
// memory, normalized to the N case at the smallest line size.
func (lr *LocalityRuns) Figure6bTable() *report.Table {
	t := report.New(
		"Figure 6(b): bandwidth consumption (normalized to N at smallest line)",
		"app", "line", "case", "norm.total", "L1<->L2", "L2<->mem")
	for _, a := range localityApps() {
		base, _ := lr.Get(a.Name, lr.Lines[0], VariantN)
		var bb float64
		if base.Stats != nil {
			bb = float64(base.Stats.BytesL1L2 + base.Stats.BytesL2Mem)
		}
		for _, line := range lr.Lines {
			for _, v := range []Variant{VariantN, VariantL} {
				r, _ := lr.Get(a.Name, line, v)
				if r.Stats == nil {
					t.Add(a.Name, fmt.Sprint(line), string(v), incompleteCell(r), "", "")
					continue
				}
				t.Add(a.Name, fmt.Sprint(line), string(v),
					report.Ratio(float64(r.Stats.BytesL1L2+r.Stats.BytesL2Mem), bb),
					report.Ratio(float64(r.Stats.BytesL1L2), bb),
					report.Ratio(float64(r.Stats.BytesL2Mem), bb))
			}
		}
	}
	return t
}

// PrefetchRuns is the Figure 7 matrix: N, NP, L, LP at a fixed 32-byte
// line, where NP and LP use the best prefetch block size from the
// sweep, exactly as the paper reports them.
type PrefetchRuns struct {
	Runs map[string]map[Variant]Run

	// Errs lists the cells the engine could not complete.
	Errs []*exp.JobError
}

// RunPrefetch executes the Figure 7 experiment. The whole matrix —
// including every block size of the NP/LP sweeps — runs through the
// engine; the best block per variant is selected afterwards in the
// original iteration order, so the reported cells match the old serial
// sweep exactly.
func RunPrefetch(o Options) *PrefetchRuns {
	o = o.Norm()
	const line = 32
	var specs []exp.Spec
	for _, a := range localityApps() {
		specs = append(specs,
			exp.Spec{App: a.Name, Line: line, Variant: string(VariantN)},
			exp.Spec{App: a.Name, Line: line, Variant: string(VariantL)})
		for _, v := range []Variant{VariantNP, VariantLP} {
			for _, blk := range o.Blocks {
				specs = append(specs, exp.Spec{App: a.Name, Line: line, Variant: string(v), Block: blk})
			}
		}
	}
	runs, errs := runEngine(o, specs, func(_ int, s exp.Spec) Run {
		return RunOne(MustApp(s.App), s.Line, Variant(s.Variant), s.Block, o)
	})
	pr := &PrefetchRuns{Runs: make(map[string]map[Variant]Run), Errs: errs}
	for i, s := range specs {
		rs := pr.Runs[s.App]
		if rs == nil {
			rs = make(map[Variant]Run)
			pr.Runs[s.App] = rs
		}
		r := runs[i]
		v := Variant(s.Variant)
		// An incomplete cell stands in only until any completed cell of
		// the sweep arrives; among completed cells the original
		// iteration order still breaks ties.
		if best, swept := rs[v]; !swept {
			rs[v] = r
		} else if r.Stats != nil && (best.Stats == nil || r.Stats.Cycles < best.Stats.Cycles) {
			rs[v] = r
		}
	}
	return pr
}

// Table renders Figure 7.
func (pr *PrefetchRuns) Table() *report.Table {
	t := report.New(
		"Figure 7: interaction with software prefetching (32B lines; NP/LP use best block size)",
		"app", "case", "block", "norm.time", "speedup vs N")
	for _, a := range localityApps() {
		rs := pr.Runs[a.Name]
		n := rs[VariantN]
		var nCycles float64
		if n.Stats != nil {
			nCycles = float64(n.Stats.Cycles)
		}
		for _, v := range []Variant{VariantN, VariantNP, VariantL, VariantLP} {
			r := rs[v]
			if r.Stats == nil {
				t.Add(a.Name, string(v), "", incompleteCell(r), "")
				continue
			}
			blk := ""
			if v == VariantNP || v == VariantLP {
				blk = fmt.Sprint(r.Block)
			}
			sp := "n/a"
			if s := r.Speedup(n); s != 0 {
				sp = fmt.Sprintf("%.2f", s)
			}
			t.Add(a.Name, string(v), blk,
				report.Ratio(float64(r.Stats.Cycles), nCycles),
				sp)
		}
	}
	return t
}

// SMVRuns is the Figure 10 experiment: SMV under N, L, and Perf.
type SMVRuns struct {
	N, L, Perf Run

	// Errs lists the cells the engine could not complete.
	Errs []*exp.JobError
}

// RunSMV executes the Figure 10 experiment at the given line size.
func RunSMV(o Options) *SMVRuns {
	o = o.Norm()
	const line = 32
	specs := []exp.Spec{
		{App: "smv", Line: line, Variant: string(VariantN)},
		{App: "smv", Line: line, Variant: string(VariantL)},
		{App: "smv", Line: line, Variant: string(VariantPerf)},
	}
	runs, errs := runEngine(o, specs, func(_ int, s exp.Spec) Run {
		return RunOne(MustApp(s.App), s.Line, Variant(s.Variant), 0, o)
	})
	return &SMVRuns{N: runs[0], L: runs[1], Perf: runs[2], Errs: errs}
}

// Tables renders Figure 10's four panels.
func (sr *SMVRuns) Tables() []*report.Table {
	runs := []Run{sr.N, sr.L, sr.Perf}

	a := report.New("Figure 10(a): SMV execution time (normalized to N)",
		"case", "norm.time", "busy", "load stall", "store stall", "inst stall")
	var baseSlots float64
	if sr.N.Stats != nil {
		baseSlots = float64(sr.N.Stats.Cycles) * 4
	}
	for _, r := range runs {
		if r.Stats == nil {
			a.Add(string(r.Variant), incompleteCell(r), "", "", "", "")
			continue
		}
		a.Add(string(r.Variant),
			report.Ratio(float64(r.Stats.Cycles)*4, baseSlots),
			report.Ratio(float64(r.Stats.Slots[0]), baseSlots),
			report.Ratio(float64(r.Stats.Slots[1]), baseSlots),
			report.Ratio(float64(r.Stats.Slots[2]), baseSlots),
			report.Ratio(float64(r.Stats.Slots[3]), baseSlots))
	}

	b := report.New("Figure 10(b): SMV D-cache misses (normalized to N)",
		"case", "load misses", "store misses")
	var bl, bs float64
	if sr.N.Stats != nil {
		bl = float64(sr.N.Stats.L1.Misses(0))
		bs = float64(sr.N.Stats.L1.Misses(1))
	}
	for _, r := range runs {
		if r.Stats == nil {
			b.Add(string(r.Variant), incompleteCell(r), "")
			continue
		}
		b.Add(string(r.Variant),
			report.Ratio(float64(r.Stats.L1.Misses(0)), bl),
			report.Ratio(float64(r.Stats.L1.Misses(1)), bs))
	}

	// A run with zero loads or stores must render as zero / "n/a", not
	// NaN: divide only when the denominator is live.
	frac := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	avg := func(cycles, den uint64) string {
		if den == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.2f", float64(cycles)/float64(den))
	}

	c := report.New("Figure 10(c): fraction of references forwarded (by hops)",
		"case", "loads 1 hop", "loads 2+ hops", "stores 1 hop", "stores 2+ hops")
	for _, r := range runs {
		st := r.Stats
		if st == nil {
			c.Add(string(r.Variant), incompleteCell(r), "", "", "")
			continue
		}
		l1 := frac(st.LoadsFwdByHops[1], st.Loads)
		l2 := frac(st.LoadsForwarded()-st.LoadsFwdByHops[1], st.Loads)
		s1 := frac(st.StoresFwdByHops[1], st.Stores)
		s2 := frac(st.StoresForwarded()-st.StoresFwdByHops[1], st.Stores)
		c.Add(string(r.Variant), report.Pct(l1), report.Pct(l2), report.Pct(s1), report.Pct(s2))
	}

	d := report.New("Figure 10(d): average cycles per load/store, forwarding vs ordinary",
		"case", "load avg", "load fwd part", "store avg", "store fwd part")
	for _, r := range runs {
		st := r.Stats
		if st == nil {
			d.Add(string(r.Variant), incompleteCell(r), "", "", "")
			continue
		}
		d.Add(string(r.Variant),
			avg(st.LoadCycles, st.Loads),
			avg(st.LoadFwdCycles, st.Loads),
			avg(st.StoreCycles, st.Stores),
			avg(st.StoreFwdCycles, st.Stores))
	}
	return []*report.Table{a, b, c, d}
}

// TierRuns is the tiered-memory experiment (the OBASE direction
// applied to the paper's mechanism): every application on a 2-tier
// machine whose far tier costs 3x the near miss latency, comparing a
// one-shot static placement pass (the paper's offline model: one
// demotion sweep over the heat observed so far, then silence) against
// the online adaptive migrator that keeps re-deciding residency as the
// workload's phases shift. The untiered machine is the flat reference
// both are normalized to.
type TierRuns struct {
	Runs []Run // app-major, tierVariants order per app

	// Errs lists the cells the engine could not complete.
	Errs []*exp.JobError
}

// tierVariants is the per-app column order of the tiering experiment.
var tierVariants = []Variant{VariantFlat, VariantStatic, VariantAdaptive}

// RunTiering executes the tiering experiment across all eight
// applications through the engine.
func RunTiering(o Options) *TierRuns {
	o = o.Norm()
	var specs []exp.Spec
	for _, a := range apps {
		for _, v := range tierVariants {
			specs = append(specs, exp.Spec{App: a.Name, Variant: string(v)})
		}
	}
	runs, errs := runEngine(o, specs, func(_ int, s exp.Spec) Run {
		return RunOne(MustApp(s.App), s.Line, Variant(s.Variant), 0, o)
	})
	return &TierRuns{Runs: runs, Errs: errs}
}

// Get returns the run for (app, variant).
func (tr *TierRuns) Get(appName string, v Variant) (Run, bool) {
	for _, r := range tr.Runs {
		if r.App == appName && r.Variant == v {
			return r, true
		}
	}
	return Run{}, false
}

// Table renders the tiering experiment: per app, each case's execution
// time normalized to the flat reference, the adaptive arm's speedup
// over the static one, and the migrator's accounting.
func (tr *TierRuns) Table() *report.Table {
	t := report.New(
		"Tiering: one-shot static vs online adaptive relocation (2 tiers, far = 3x near latency; time normalized to Flat)",
		"app", "case", "norm.time", "vs Static", "demoted", "promoted", "spilled", "near hit")
	for _, a := range apps {
		flat, _ := tr.Get(a.Name, VariantFlat)
		static, _ := tr.Get(a.Name, VariantStatic)
		for _, v := range tierVariants {
			r, _ := tr.Get(a.Name, v)
			if r.Stats == nil {
				t.Add(a.Name, string(v), incompleteCell(r), "", "", "", "", "")
				continue
			}
			var flatCycles float64
			if flat.Stats != nil {
				flatCycles = float64(flat.Stats.Cycles)
			}
			sp := ""
			if v == VariantAdaptive {
				if s := r.Speedup(static); s == 0 {
					sp = "n/a"
				} else {
					sp = fmt.Sprintf("(%+.1f%%)", 100*(s-1))
				}
			}
			demoted, promoted, spilled, hit := "", "", "", ""
			if ts := r.Tier; ts != nil {
				demoted = fmt.Sprint(ts.Demotions)
				promoted = fmt.Sprint(ts.Promotions)
				spilled = fmt.Sprint(ts.Spills)
				hit = report.Pct(ts.HitRate(0))
			}
			t.Add(a.Name, string(v),
				report.Ratio(float64(r.Stats.Cycles), flatCycles),
				sp, demoted, promoted, spilled, hit)
		}
	}
	return t
}

// RunTable1 regenerates Table 1: each application, the optimization
// applied, and the measured space overhead of relocation. The second
// return lists cells the engine could not complete (their rows carry
// the incomplete marker); nil on a clean run.
func RunTable1(o Options) (*report.Table, []*exp.JobError) {
	o = o.Norm()
	specs := make([]exp.Spec, len(apps))
	for i, a := range apps {
		specs[i] = exp.Spec{App: a.Name, Line: 128, Variant: string(VariantL)}
	}
	runs, errs := runEngine(o, specs, func(_ int, s exp.Spec) Run {
		return RunOne(MustApp(s.App), s.Line, Variant(s.Variant), 0, o)
	})
	t := report.New("Table 1: applications and optimizations",
		"app", "optimization", "relocated objs", "space overhead", "insts (opt run)")
	for i, a := range apps {
		r := runs[i]
		if r.Stats == nil {
			t.Add(a.Name, a.Optimization, incompleteCell(r), "", "")
			continue
		}
		t.Add(a.Name, a.Optimization, fmt.Sprint(r.Result.Relocated),
			report.KB(r.Result.SpaceOverhead), fmt.Sprint(r.Stats.Instructions))
	}
	return t, errs
}

// RunLines executes one application under one variant across several
// line sizes through the engine — the sweep behind memfwd-sim -lines.
// The second return lists cells the engine could not complete (their
// Runs carry the Incomplete marker); nil on a clean sweep.
func RunLines(a App, lines []int, v Variant, block int, o Options) ([]Run, []*exp.JobError) {
	o = o.Norm()
	specs := make([]exp.Spec, len(lines))
	for i, line := range lines {
		specs[i] = exp.Spec{App: a.Name, Line: line, Variant: string(v), Block: block}
	}
	return runEngine(o, specs, func(_ int, s exp.Spec) Run {
		return RunOne(a, s.Line, Variant(s.Variant), s.Block, o)
	})
}

// Figure8Layout demonstrates the eqntott layout transformation on a
// miniature structure: records and their arrays scattered before, one
// contiguous chunk per record after, in hash order (Figure 8).
func Figure8Layout() *report.Table {
	m := NewMachine(MachineConfig{})
	pool := opt.NewPool(m, 1<<12)
	t := report.New("Figure 8: eqntott PTERM layout before/after relocation",
		"slot", "record before", "array before", "record after", "array after", "contiguous")

	type rec struct{ r, a Addr }
	var before []rec
	for i := 0; i < 4; i++ {
		r := m.Malloc(24)
		m.Malloc(40) // scatter
		arr := m.Malloc(32)
		m.StorePtr(r+8, arr)
		before = append(before, rec{r, arr})
	}
	var prevEnd Addr
	for i, rc := range before {
		chunk := pool.Alloc(24 + 32)
		opt.Relocate(m, rc.r, chunk, 3)
		opt.Relocate(m, rc.a, chunk+24, 4)
		m.StorePtr(chunk+8, chunk+24)
		contig := i == 0 || chunk == prevEnd
		prevEnd = chunk + 56
		t.Addf(i, fmt.Sprintf("%#x", rc.r), fmt.Sprintf("%#x", rc.a),
			fmt.Sprintf("%#x", chunk), fmt.Sprintf("%#x", chunk+24), contig)
	}
	return t
}

// Figure9Layout demonstrates subtree clustering on a small binary tree:
// node addresses before (creation order) and after (balanced clusters).
func Figure9Layout(clusterBytes uint64) *report.Table {
	m := NewMachine(MachineConfig{})
	pool := opt.NewPool(m, 1<<12)
	t := report.New("Figure 9: subtree clustering layout",
		"node", "before", "after", "cluster#")

	// Build a depth-3 complete binary tree, pre-order, scattered.
	desc := opt.TreeDesc{NodeBytes: 24, ChildOffs: []uint64{8, 16}}
	rootHandle := m.Malloc(8)
	var nodes []Addr
	var build func(handle Addr, d int)
	build = func(handle Addr, d int) {
		if d == 0 {
			return
		}
		m.Malloc(40)
		n := m.Malloc(24)
		m.StoreWord(n, uint64(len(nodes)+1))
		m.StorePtr(handle, n)
		nodes = append(nodes, n)
		build(n+8, d-1)
		build(n+16, d-1)
	}
	build(rootHandle, 3)
	opt.SubtreeCluster(m, pool, rootHandle, desc, clusterBytes)

	// Re-walk breadth-first to report new addresses.
	queue := []Addr{m.LoadPtr(rootHandle)}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == 0 {
			continue
		}
		t.Addf(m.LoadWord(n), fmt.Sprintf("%#x", nodes[m.LoadWord(n)-1]),
			fmt.Sprintf("%#x", n), uint64(n)/clusterBytes%1000)
		queue = append(queue, m.LoadPtr(n+8), m.LoadPtr(n+16))
	}
	return t
}

// RunFalseSharing demonstrates the multiprocessor false-sharing
// application of Section 2.2 on the mp extension: four processors
// increment per-processor counters that share one cache line, then the
// counters are relocated one-per-line (forwarding-safe) and the
// ping-pong disappears. Both layouts run as independent engine jobs;
// the second return lists any the engine could not complete.
func RunFalseSharing(o Options) (*report.Table, []*exp.JobError) {
	t := report.New("Extension: false sharing cured by forwarding-safe relocation (Section 2.2)",
		"layout", "invalidations", "false-sharing", "cycles", "speedup")
	type fsRun struct {
		inv, falseInv uint64
		cycles        int64
	}
	run := func(relocate bool) fsRun {
		s := NewSystem(SystemConfig{Processors: 4, LineSize: 64})
		base := s.Heap.Alloc(4 * 8)
		counters := make([]Addr, 4)
		for i := range counters {
			counters[i] = base + Addr(i*8)
		}
		if relocate {
			s.RelocatePadded(counters)
		}
		for r := 0; r < 1000; r++ {
			for i, c := range s.CPUs {
				v := c.LoadWord(counters[i])
				c.StoreWord(counters[i], v+1)
				c.Inst(6)
			}
		}
		return fsRun{s.Stats.Invalidations, s.Stats.FalseInvalidations, s.Cycles()}
	}
	specs := []exp.Spec{
		{App: "false-sharing", Variant: "packed"},
		{App: "false-sharing", Variant: "relocated"},
	}
	runs, errs := exp.RunChecked(o.engine(), specs, func(_ int, s exp.Spec) fsRun {
		return run(s.Variant == "relocated")
	})
	if len(errs) > 0 {
		for _, e := range errs {
			t.Addf(e.Spec.Variant, "incomplete: "+e.Reason(), "", "", "")
		}
		return t, errs
	}
	p, r := runs[0], runs[1]
	t.Addf("packed (one line)", p.inv, p.falseInv, p.cycles, "")
	t.Addf("relocated (one line each)", r.inv, r.falseInv, r.cycles,
		report.Ratio(float64(p.cycles), float64(r.cycles)))
	return t, errs
}
