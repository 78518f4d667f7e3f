package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"memfwd/internal/sim"
)

// workload is one benchmark workload. prepare computes the references
// its checks compare against; boot brings a fresh system up to the
// start of the timed phase (setup_s times it); measure runs the timed
// phase on the booted system, checks the outputs into r, and tears the
// system down; teardown releases a booted system measure did not use.
type workload interface {
	prepare(r *result) error
	boot() error
	measure(r *result, traced bool) (*phase, error)
	teardown()
}

// phase is what one timed phase measured.
type phase struct {
	wall time.Duration
	ops  float64 // guest operations completed (figures: simulated references)
	reqs []time.Duration

	// counts must repeat exactly at a fixed seed; a traced phase must
	// reproduce the untraced one's.
	counts map[string]float64
	// timings are the phase's per-layer timings: exp.utilization and
	// the catalog's extras, the ones only some workloads produce (the
	// others report them as zero).
	timings []metric
}

// zeroTimings are the per-layer timings a workload that produces none
// of them reports.
func zeroTimings() []metric {
	out := []metric{{"exp.utilization", 0, "ratio"}}
	for _, m := range cat.Extra {
		out = append(out, metric{m.Name, 0, m.Unit})
	}
	return out
}

// countNames lists the exact counts every workload reports (zero where
// the workload does not exercise them).
var countNames = []string{
	"sim.insts", "sim.refs", "cache.l1_accesses", "cache.l1_misses", "cache.l2_misses",
	"core.fwd_refs", "exp.cells", "serve.requests", "serve.migrations", "serve.restores",
	"serve.shed", "serve.tier.wakes", "serve.tier.demotions",
}

func newPhase() *phase {
	p := &phase{counts: map[string]float64{}}
	for _, n := range countNames {
		p.counts[n] = 0
	}
	return p
}

// addStats folds one machine's statistics into the exact counts.
func (p *phase) addStats(st *sim.Stats) {
	var hits, misses, l2 uint64
	for k := range st.L1.Hits {
		hits += st.L1.Hits[k]
		misses += st.L1.PartialMisses[k] + st.L1.FullMisses[k]
		l2 += st.L2.PartialMisses[k] + st.L2.FullMisses[k]
	}
	p.counts["sim.insts"] += float64(st.Instructions)
	p.counts["sim.refs"] += float64(st.Loads + st.Stores)
	p.counts["cache.l1_accesses"] += float64(hits + misses)
	p.counts["cache.l1_misses"] += float64(misses)
	p.counts["cache.l2_misses"] += float64(l2)
	p.counts["core.fwd_refs"] += float64(st.LoadsForwarded() + st.StoresForwarded())
}

// addSession folds one served session's statistics and migrator counts
// into the exact counts.
func (p *phase) addSession(s sessionStats) {
	p.addStats(s.st)
	p.counts["serve.tier.wakes"] += float64(s.wakes)
	p.counts["serve.tier.demotions"] += float64(s.demotions)
}

func newWorkload(o options, sz sizes) workload {
	switch o.workload {
	case "figures":
		return &figuresWorkload{o: o, sz: sz}
	case "app-sessions":
		return &appWorkload{o: o, sz: sz}
	case "raw-sessions":
		return &rawWorkload{o: o, sz: sz}
	}
	panic("bench: unknown workload " + o.workload)
}

// run executes one benchmark run: prepare, the setup rounds, the
// untraced timed phase, and with o.trace a second, CPU-profiled timed
// phase followed by the guest-op probe.
func run(o options) *result {
	r := &result{}
	spec, _ := cat.workload(o.workload)
	sz := spec.sizesFor(o.seconds, o.short)
	w := newWorkload(o, sz)
	defer w.teardown()

	t0 := time.Now()
	if err := w.prepare(r); err != nil {
		r.fail("prepare: %v", err)
		return r
	}
	r.set("prepare_s", time.Since(t0).Seconds(), "s")

	// setup_s is the median of several boots, each from nothing; the
	// last one's system is the one the timed phase runs on.
	var boots []float64
	for i := 0; i < sz.SetupRounds; i++ {
		w.teardown()
		t := time.Now()
		if err := w.boot(); err != nil {
			r.fail("setup: %v", err)
			return r
		}
		boots = append(boots, time.Since(t).Seconds())
	}
	r.set("setup_s", median(boots), "s")
	o.logf("setup rounds %v", boots)

	plain, err := w.measure(r, false)
	if err != nil {
		r.fail("timed phase: %v", err)
		return r
	}
	rss, err := peakRSSMiB()
	if err != nil {
		r.fail("peak rss: %v", err)
		return r
	}
	r.set("wall_s", plain.wall.Seconds(), "s")
	r.set("peak_rss_mb", rss, "MiB")
	r.set("sim_minst_per_s", plain.counts["sim.insts"]/1e6/plain.wall.Seconds(), "Minst/s")
	r.set("ops_per_s", plain.ops/plain.wall.Seconds(), "1/s")
	tailMS, tailPct := tail(plain.reqs)
	r.set("req_p50_ms", percentile(plain.reqs, 50), "ms")
	r.set("req_tail_ms", tailMS, "ms")
	r.set("req_tail_pct", tailPct, "%")
	r.set("req_samples", float64(len(plain.reqs)), "count")
	for _, n := range countNames {
		r.set(n, plain.counts[n], "count")
	}
	for _, m := range append(zeroTimings(), plain.timings...) {
		r.set(m.name, m.value, m.unit)
	}
	if o.trace {
		runTraced(o, sz, w, plain, r)
	}
	return r
}

// runTraced boots the workload again, runs its timed phase under a CPU
// profile, checks that it reproduced the untraced phase's exact counts,
// splits the profile into layers, and runs the guest-op probe.
func runTraced(o options, sz sizes, w workload, plain *phase, r *result) {
	if err := w.boot(); err != nil {
		r.fail("traced boot: %v", err)
		return
	}
	dir, err := os.MkdirTemp("", "memfwd-bench-prof-")
	if err != nil {
		r.fail("profile dir: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	profPath := filepath.Join(dir, "cpu.pprof")
	traced, err := profiled(profPath, func() (*phase, error) { return w.measure(r, true) })
	if err != nil {
		r.fail("traced phase: %v", err)
		return
	}
	for _, n := range countNames {
		r.check(traced.counts[n] == plain.counts[n], "traced %s = %v, untraced %v", n, traced.counts[n], plain.counts[n])
	}
	r.set("trace_overhead", traced.wall.Seconds()/plain.wall.Seconds(), "ratio")
	for _, m := range traced.timings {
		r.set(m.name, m.value, m.unit)
	}

	self, err := layerSelfTimes(profPath)
	if err != nil {
		r.fail("profile attribution: %v", err)
		return
	}
	var total float64
	for _, l := range layers {
		r.set(l+".self_s", self[l], "cpu-s")
		total += self[l]
	}
	r.set("profile.named_share", 1-self["rt.other"]/max(total, 1e-9), "ratio")
	for _, u := range []struct{ name, layer, count string }{
		{"cpu.ns_per_inst", "cpu", "sim.insts"},
		{"cache.ns_per_access", "cache", "cache.l1_accesses"},
		{"mem.ns_per_ref", "mem", "sim.refs"},
		{"core.ns_per_ref", "core", "sim.refs"},
		{"sim.ns_per_ref", "sim", "sim.refs"},
	} {
		r.set(u.name, self[u.layer]/max(traced.counts[u.count], 1)*1e9, "ns")
	}

	if err := guestProbe(o, sz, r); err != nil {
		r.fail("guest-op probe: %v", err)
	}
}

// profiled runs fn under a CPU profile written to path.
func profiled(path string, fn func() (*phase, error)) (*phase, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p, err := fn()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("write profile: %w", cerr)
	}
	return p, err
}
