// Command bench is the repository benchmark for memfwd. It drives three
// workloads through the program's public entry points — the figure
// pipeline, and stepped app sessions and raw guest-op sessions on the
// HTTP session server — and measures each layer from outside, by
// timing the calls it makes into it. It changes no program code, and it
// checks every output it times against a reference.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload raw-sessions --seed 9 --seconds 12 --trace 0
//
// or from bench/ with "go run . -workload figures". The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics: the end-to-end metrics of BENCHMARK.json with
// -trace 0, its per-layer metrics with -trace 1. Every metric is also
// printed above it as "name value unit". README.md describes the
// workloads, the metrics and how to compare two commits.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

//go:embed catalog.json
var catalogJSON []byte

// catalog is bench/catalog.json: what BENCHMARK.json's fixed schema has
// no room for — each workload's command, default seed and sizes, each
// metric's definition, layer and the end-to-end metric it should move,
// and the pinned digest of the figure suite.
type catalog struct {
	FiguresSHA256 struct {
		Seed   int64  `json:"seed"`
		SHA256 string `json:"sha256"`
	} `json:"figures_sha256"`
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
	// Extra are per-layer timings that only some workloads produce: every
	// run prints them, but the result object leaves them out, since they
	// read exactly 0 on the other workloads.
	Extra []metricSpec `json:"extra"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	// Sizes are for a 10 s run; the field named by Scaled grows with
	// -seconds. Short replaces them in this package's tests.
	Sizes  sizes  `json:"sizes"`
	Short  sizes  `json:"short"`
	Scaled string `json:"scaled"`
}

type metricSpec struct {
	Name  string `json:"name"`
	Unit  string `json:"unit"`
	Layer string `json:"layer,omitempty"`
	Moves string `json:"moves,omitempty"`
	What  string `json:"what"`
}

// sizes fixes how much work a workload does. Fields a workload does not
// use stay zero.
type sizes struct {
	Clients     int      `json:"clients"`
	Shards      int      `json:"shards"`
	SetupRounds int      `json:"setup_rounds"`
	ProbeApps   []string `json:"probe_apps"` // the traced run's guest-op probe

	// figures
	Jobs     int      `json:"jobs,omitempty"`
	Scale    int      `json:"scale,omitempty"`
	Suites   int      `json:"suites,omitempty"`
	Sections []string `json:"sections,omitempty"`

	// app sessions
	Apps       []string `json:"apps,omitempty"`
	WarmApp    string   `json:"warm_app,omitempty"` // the app each boot steps
	WarmQuanta int      `json:"warm_quanta,omitempty"`
	Quantum    int      `json:"quantum,omitempty"`
	Tiers      int      `json:"tiers,omitempty"`
	Harts      int      `json:"harts,omitempty"`

	// app and raw sessions: how many each client runs
	Sessions int `json:"sessions,omitempty"`

	// raw sessions; every SnapshotEvery-th one snapshots and restores at
	// its midpoint
	Batches       int `json:"batches,omitempty"`
	BatchOps      int `json:"batch_ops,omitempty"`
	MigrateEvery  int `json:"migrate_every,omitempty"`
	SnapshotEvery int `json:"snapshot_every,omitempty"`
	WarmBatches   int `json:"warm_batches,omitempty"`
}

var cat = mustCatalog()

func mustCatalog() catalog {
	var c catalog
	if err := json.Unmarshal(catalogJSON, &c); err != nil {
		panic(fmt.Sprintf("bench: catalog.json: %v", err))
	}
	return c
}

func (c catalog) workload(name string) (workloadSpec, bool) {
	for _, w := range c.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func (c catalog) names() []string {
	var out []string
	for _, w := range c.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// sizesFor returns the workload's sizes for a run of the given length:
// the Scaled field is multiplied by seconds/10, rounded, at least 1.
func (w workloadSpec) sizesFor(seconds int, short bool) sizes {
	if short {
		return w.Short
	}
	sz := w.Sizes
	scale := func(n int) int {
		return max(1, int(math.Round(float64(n)*float64(seconds)/10)))
	}
	switch w.Scaled {
	case "suites":
		sz.Suites = scale(sz.Suites)
	case "sessions":
		sz.Sessions = scale(sz.Sessions)
	}
	return sz
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	short    bool
	log      io.Writer
}

func (o options) logf(format string, args ...any) {
	if o.log != nil {
		fmt.Fprintf(o.log, "[bench %s] "+format+"\n", append([]any{o.workload}, args...)...)
	}
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: "+strings.Join(cat.names(), ", "))
		seed      = flag.Int64("seed", 0, "input seed (0 takes the workload's default from catalog.json)")
		seconds   = flag.Int("seconds", 10, "run length; catalog sizes are for 10 s and scale linearly")
		trace     = flag.Int("trace", 0, "1 adds a CPU-profiled phase and the guest-op probe, and reports the per-layer metrics")
		out       = flag.String("out", "", "also write the result JSON to this file")
		repeat    = flag.Int("repeat", 0, "run N child processes per workload (all workloads when -workload is empty) and print median and quartiles of every end-to-end metric")
		benchJSON = flag.String("benchmark", "BENCHMARK.json", "benchmark definition whose bounds -repeat checks the spread against")
	)
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *repeat > 0 {
		os.Exit(repeatMain(*repeat, *workload, *seed, *seconds, *benchJSON))
	}
	spec, ok := cat.workload(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: want -workload one of %s, -seconds >= 1 and -trace 0 or 1\n", strings.Join(cat.names(), ", "))
		os.Exit(2)
	}
	if *seed == 0 {
		*seed = spec.Seed
	}
	// A wedged server must not hold the run past its time limit.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "bench: run exceeded 170 s; aborting")
		os.Exit(3)
	})

	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, log: os.Stderr}
	res := run(o)
	line := res.print(os.Stdout, o.trace)
	if *out != "" {
		if err := os.WriteFile(*out, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	}
	if res.failed > 0 {
		os.Exit(1)
	}
}

// metric is one measured value.
type metric struct {
	name  string
	value float64
	unit  string
}

// result accumulates a run's metrics and correctness checks.
type result struct {
	metrics   []metric
	attempted int
	failed    int
	failures  []string
}

func (r *result) set(name string, v float64, unit string) {
	for i := range r.metrics {
		if r.metrics[i].name == name {
			r.metrics[i] = metric{name, v, unit}
			return
		}
	}
	r.metrics = append(r.metrics, metric{name, v, unit})
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// check counts one correctness check, recording it as failed unless ok.
func (r *result) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

// fail records an error that stopped the run short as one failed
// attempt.
func (r *result) fail(format string, args ...any) {
	r.check(false, format, args...)
}

// print writes every metric as "name value unit", then the failures,
// then the result object as the last line, and returns that line.
// -trace 0 reports the end-to-end metrics, -trace 1 the per-layer ones;
// a catalog metric the run did not produce is a failure.
func (r *result) print(w io.Writer, trace bool) []byte {
	specs := cat.EndToEnd
	if trace {
		specs = cat.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, s := range specs {
		m, ok := r.get(s.Name)
		if !ok || m.unit != s.Unit {
			// After another failure the run stopped short; only report
			// a missing metric on its own.
			if r.failed == 0 {
				r.fail("metric %s was not measured in %s", s.Name, s.Unit)
			}
			continue
		}
		out[s.Name] = value{m.value, m.unit}
	}
	attempted := max(r.attempted, 1)
	r.set("failed_frac", float64(r.failed)/float64(attempted), "ratio")
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, attempted, r.failed, out})
	fmt.Fprintf(w, "%s\n", line)
	return line
}

// median returns the middle value (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of d, in
// milliseconds.
func percentile(d []time.Duration, p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return rank(d, int(math.Ceil(p/100*float64(len(d))))-1)
}

// tail returns the highest nearest-rank percentile of d, at most the
// 99th, that leaves at least twenty samples above it (the median when d
// is too small for any), in milliseconds, and which percentile that is.
// Twenty, not ten: the figure suite's slowest dozen cells are far apart,
// so a rank among them swings with which cells a host stall hits.
func tail(d []time.Duration) (ms, pct float64) {
	n := len(d)
	if n == 0 {
		return 0, 0
	}
	i := min(int(math.Ceil(0.99*float64(n)))-1, n-21)
	i = max(i, (n-1)/2)
	return rank(d, i), 100 * float64(i+1) / float64(n)
}

// rank returns the i-th smallest sample of d, in milliseconds.
func rank(d []time.Duration, i int) float64 {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i = min(max(i, 0), len(s)-1)
	return float64(s[i]) / float64(time.Millisecond)
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(data), "\n") {
		if f := strings.Fields(l); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
