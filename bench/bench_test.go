package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go in race builds.
var raceEnabled bool

// benchDef is the part of ../BENCHMARK.json the tests compare against.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchDef(t *testing.T) benchDef {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// TestCatalogMatchesBenchmark pins catalog.json to BENCHMARK.json: the
// same workloads, and the same metric names and units in the same order.
func TestCatalogMatchesBenchmark(t *testing.T) {
	def := readBenchDef(t)
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(cat.names(), ","), strings.Join(names, ","); got != want {
		t.Errorf("catalog workloads %s, BENCHMARK.json %s", got, want)
	}
	for _, set := range []struct {
		name      string
		cat, json []metricSpec
	}{{"end_to_end", cat.EndToEnd, def.EndToEnd}, {"per_layer", cat.PerLayer, def.PerLayer}} {
		if len(set.cat) != len(set.json) {
			t.Fatalf("%s: catalog has %d metrics, BENCHMARK.json %d", set.name, len(set.cat), len(set.json))
		}
		for i := range set.cat {
			if set.cat[i].Name != set.json[i].Name || set.cat[i].Unit != set.json[i].Unit {
				t.Errorf("%s[%d]: catalog %s %s, BENCHMARK.json %s %s", set.name, i,
					set.cat[i].Name, set.cat[i].Unit, set.json[i].Name, set.json[i].Unit)
			}
		}
	}
	for _, l := range layers {
		found := false
		for _, m := range cat.PerLayer {
			found = found || m.Name == l+".self_s"
		}
		if !found {
			t.Errorf("layer %s has no %s.self_s metric", l, l)
		}
	}
	perLayer := append(append([]metricSpec(nil), cat.PerLayer...), cat.Extra...)
	for _, m := range append(perLayer, cat.EndToEnd...) {
		if m.What == "" {
			t.Errorf("metric %s has no definition", m.Name)
		}
	}
	for _, m := range perLayer {
		if m.Layer == "" || m.Moves == "" {
			t.Errorf("per-layer metric %s names no layer or no end-to-end metric it moves", m.Name)
		}
	}
}

// runShort runs one workload at its short size and returns the result
// and everything it printed.
func runShort(t *testing.T, workload string, trace bool) (*result, string) {
	t.Helper()
	spec, _ := cat.workload(workload)
	var log bytes.Buffer
	r := run(options{workload: workload, seed: spec.Seed, seconds: 10, trace: trace, short: true, log: &log})
	var out bytes.Buffer
	r.print(&out, trace)
	if r.failed > 0 {
		t.Fatalf("%s failed:\n%s\n%s", workload, out.String(), log.String())
	}
	return r, out.String()
}

// checkPrinted checks the printed report: every given catalog metric
// and every extra as a "name value unit" line, and a last line whose
// metrics are exactly the given ones.
func checkPrinted(t *testing.T, out string, specs []metricSpec) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	printed := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) == 3 {
			printed[f[0]] = f[2]
		}
	}
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Errorf("result correct=%v attempted=%d", res.Correct, res.Attempted)
	}
	if len(res.Metrics) != len(specs) {
		t.Errorf("result carries %d metrics, catalog %d", len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		if unit := printed[s.Name]; unit != s.Unit {
			t.Errorf("printed %s in %q, catalog %q", s.Name, unit, s.Unit)
		}
		m, ok := res.Metrics[s.Name]
		if !ok || m.Unit != s.Unit || math.IsNaN(m.Value) {
			t.Errorf("result metric %s = %+v, want unit %s", s.Name, m, s.Unit)
		}
	}
	for _, s := range cat.Extra {
		if unit := printed[s.Name]; unit != s.Unit {
			t.Errorf("printed extra %s in %q, catalog %q", s.Name, unit, s.Unit)
		}
	}
}

// TestWorkloadsShort runs every workload at its short size, untraced,
// and the figure suite traced too, checking their reports.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range cat.names() {
		t.Run(w, func(t *testing.T) {
			r, out := runShort(t, w, false)
			checkPrinted(t, out, cat.EndToEnd)
			for _, name := range []string{"wall_s", "ops_per_s", "sim_minst_per_s", "req_p50_ms", "req_tail_ms"} {
				if m, _ := r.get(name); m.value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.value)
				}
			}
		})
	}
	t.Run("figures-traced", func(t *testing.T) {
		r, out := runShort(t, "figures", true)
		checkPrinted(t, out, cat.PerLayer)
		if m, _ := r.get("profile.named_share"); m.value < 0.95 && !raceEnabled {
			t.Errorf("named layers cover %.1f%% of profile samples, want >= 95%%", 100*m.value)
		}
	})
}

// TestWrongReferenceFails corrupts one session's reference digest and
// expects the run to report it instead of passing.
func TestWrongReferenceFails(t *testing.T) {
	spec, _ := cat.workload("raw-sessions")
	o := options{workload: "raw-sessions", seed: spec.Seed, seconds: 10, short: true}
	w := newWorkload(o, spec.Short).(*rawWorkload)
	r := &result{}
	if err := w.prepare(r); err != nil {
		t.Fatal(err)
	}
	w.scripts[0][0].digest ^= 1
	if err := w.boot(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.measure(r, false); err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 || !strings.Contains(strings.Join(r.failures, "\n"), "digest") {
		t.Fatalf("corrupted reference digest: %d failures %q, want one digest failure", r.failed, r.failures)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"memfwd/internal/cache.(*Cache).lookup", "memfwd/internal/sim.(*Machine).Load", "memfwd/internal/apps/smv.run"}, "cache"},
		{[]string{"runtime.memmove", "memfwd/internal/apps/bh.run", "memfwd.RunOne"}, "apps"},
		{[]string{"memfwd/internal/exp.invoke[go.shape.struct { A memfwd/internal/sim.Stats }].func1"}, "exp"},
		{[]string{"memfwd/internal/report.WriteJSON", "memfwd/internal/serve.writeJSON"}, "serve"},
		{[]string{"encoding/json.Marshal", "main.(*client).do"}, "http"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "rt.gc"},
		{[]string{"runtime.casgstatus", "runtime.park_m", "runtime.mcall"}, "rt.sched"},
		{[]string{"main.fnvMix", "main.(*client).rawSession"}, "rt.other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestQuartiles matches Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestTail(t *testing.T) {
	d := make([]time.Duration, 139)
	for i := range d {
		d[i] = time.Duration(i+1) * time.Millisecond
	}
	ms, pct := tail(d)
	if ms != 119 || math.Abs(pct-100*119.0/139) > 1e-9 {
		t.Errorf("tail of 1..139 ms = %v ms at p%v, want 119 ms (twenty samples above)", ms, pct)
	}
	ms, pct = tail(d[:5])
	if ms != 3 || pct != 60 {
		t.Errorf("tail of 1..5 ms = %v ms at p%v, want the median", ms, pct)
	}
}
