package memfwd

// The benchmark harness regenerates every table and figure of the
// paper's evaluation section (run `go test -bench=. -benchmem`), plus
// microbenchmarks and ablations for the design choices DESIGN.md calls
// out. Key series values are attached with b.ReportMetric so the shape
// of each result is visible straight from the bench output; the
// rendered tables come from `go run ./cmd/figures`.

import (
	"fmt"
	"runtime"
	"testing"
)

func benchOptions() Options { return Options{Seed: 9} }

// BenchmarkTable1 regenerates Table 1 (applications, optimizations,
// space overhead).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, _ := RunTable1(benchOptions())
		if len(tab.Rows) != 8 {
			b.Fatal("table 1 incomplete")
		}
	}
}

// BenchmarkFigure5 regenerates the execution-time sweep (7 apps × 3
// line sizes × {N,L}) and reports the headline speedups.
func BenchmarkFigure5(b *testing.B) {
	var lr *LocalityRuns
	for i := 0; i < b.N; i++ {
		lr = RunLocality(benchOptions())
	}
	for _, name := range []string{"health", "vis", "mst"} {
		n, _ := lr.Get(name, 128, VariantN)
		l, _ := lr.Get(name, 128, VariantL)
		b.ReportMetric(l.Speedup(n), "speedup128B:"+name)
	}
}

// BenchmarkFigure6a regenerates the load D-cache miss series and
// reports the miss reduction for health at 128B lines.
func BenchmarkFigure6a(b *testing.B) {
	var lr *LocalityRuns
	for i := 0; i < b.N; i++ {
		lr = RunLocality(benchOptions())
	}
	n, _ := lr.Get("health", 128, VariantN)
	l, _ := lr.Get("health", 128, VariantL)
	b.ReportMetric(float64(l.Stats.L1.Misses(0))/float64(n.Stats.L1.Misses(0)), "missRatio128B:health")
	if len(lr.Figure6aTable().Rows) == 0 {
		b.Fatal("empty table")
	}
}

// BenchmarkFigure6b regenerates the bandwidth series and reports the
// total-bandwidth ratio for health at 128B lines.
func BenchmarkFigure6b(b *testing.B) {
	var lr *LocalityRuns
	for i := 0; i < b.N; i++ {
		lr = RunLocality(benchOptions())
	}
	n, _ := lr.Get("health", 128, VariantN)
	l, _ := lr.Get("health", 128, VariantL)
	b.ReportMetric(
		float64(l.Stats.BytesL1L2+l.Stats.BytesL2Mem)/float64(n.Stats.BytesL1L2+n.Stats.BytesL2Mem),
		"bwRatio128B:health")
	if len(lr.Figure6bTable().Rows) == 0 {
		b.Fatal("empty table")
	}
}

// BenchmarkFigure7 regenerates the prefetch-interaction experiment
// (N/NP/L/LP at 32B lines with the block-size sweep) and reports
// health's LP speedup.
func BenchmarkFigure7(b *testing.B) {
	var pr *PrefetchRuns
	for i := 0; i < b.N; i++ {
		pr = RunPrefetch(benchOptions())
	}
	rs := pr.Runs["health"]
	b.ReportMetric(rs[VariantLP].Speedup(rs[VariantN]), "speedupLP:health")
	b.ReportMetric(rs[VariantNP].Speedup(rs[VariantN]), "speedupNP:health")
}

// BenchmarkFigure8 regenerates the eqntott layout demonstration.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(Figure8Layout().Rows) != 4 {
			b.Fatal("layout incomplete")
		}
	}
}

// BenchmarkFigure9 regenerates the subtree-clustering layout
// demonstration.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(Figure9Layout(128).Rows) != 7 {
			b.Fatal("layout incomplete")
		}
	}
}

// BenchmarkFigure10 regenerates the SMV forwarding-overhead study and
// reports the forwarded-load fraction and the N/L/Perf cycle ratios.
func BenchmarkFigure10(b *testing.B) {
	var sr *SMVRuns
	for i := 0; i < b.N; i++ {
		sr = RunSMV(benchOptions())
	}
	b.ReportMetric(float64(sr.L.Stats.LoadsFwdByHops[1])/float64(sr.L.Stats.Loads), "fwdLoadFrac:L")
	b.ReportMetric(float64(sr.L.Stats.Cycles)/float64(sr.N.Stats.Cycles), "timeRatio:L/N")
	b.ReportMetric(float64(sr.Perf.Stats.Cycles)/float64(sr.N.Stats.Cycles), "timeRatio:Perf/N")
}

// BenchmarkFigure5Jobs measures the experiment engine's wall-clock
// scaling on the Figure 5 matrix: the same 42 cells at one worker and
// at GOMAXPROCS workers. Results are byte-identical either way (see
// TestParallelDeterminism); only the wall time differs. On a
// single-core host the second leg would repeat the first, so only the
// jobs=1 leg runs there.
func BenchmarkFigure5Jobs(b *testing.B) {
	legs := []int{1}
	if n := runtime.GOMAXPROCS(0); n != 1 {
		legs = append(legs, n)
	}
	for _, jobs := range legs {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := benchOptions()
				o.Jobs = jobs
				if len(RunLocality(o).Runs) != 42 {
					b.Fatal("matrix incomplete")
				}
			}
		})
	}
}

// --- microbenchmarks and ablations ----------------------------------

// benchChase measures the per-reference cost of forwarding chains of
// increasing length — the raw price of the safety net.
func benchChase(b *testing.B, hops int) {
	m := NewMachine(MachineConfig{})
	// Build a chain of the requested length.
	addrs := make([]Addr, hops+1)
	for i := range addrs {
		addrs[i] = m.Malloc(8)
	}
	m.StoreWord(addrs[hops], 42)
	for i := 0; i < hops; i++ {
		Relocate(m, addrs[i], addrs[i+1], 1)
	}
	// Relocate chains each hop onto the previous chain end, so the walk
	// from addrs[0] is exactly `hops` long.
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += m.LoadWord(addrs[0])
	}
	b.StopTimer()
	if hops > 0 && m.Finalize().LoadsForwarded() == 0 {
		b.Fatal("chain not exercised")
	}
	_ = sum
}

func BenchmarkChase0(b *testing.B) { benchChase(b, 0) }
func BenchmarkChase1(b *testing.B) { benchChase(b, 1) }
func BenchmarkChase2(b *testing.B) { benchChase(b, 2) }
func BenchmarkChase4(b *testing.B) { benchChase(b, 4) }

// BenchmarkRelocate measures the relocation primitive itself (a fresh
// 8-word object per iteration, so chains stay one hop).
func BenchmarkRelocate(b *testing.B) {
	m := NewMachine(MachineConfig{HeapLimit: 1 << 34})
	pool := NewPool(m, 1<<24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := m.Alloc.Alloc(64)
		tgt := pool.Alloc(64)
		Relocate(m, src, tgt, 8)
	}
}

// BenchmarkListLinearize measures linearizing a 256-node list.
func BenchmarkListLinearize(b *testing.B) {
	m := NewMachine(MachineConfig{})
	pool := NewPool(m, 1<<24)
	head := m.Malloc(8)
	prev := head
	for i := 0; i < 256; i++ {
		n := m.Malloc(16)
		m.StoreWord(n, uint64(i))
		m.StorePtr(prev, n)
		prev = n + 8
	}
	d := ListDesc{NodeBytes: 16, NextOff: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ListLinearize(m, pool, head, d) != 256 {
			b.Fatal("lost nodes")
		}
	}
}

// BenchmarkFinalAddr measures the compiler-inserted pointer-comparison
// support (final-address lookup).
func BenchmarkFinalAddr(b *testing.B) {
	m := NewMachine(MachineConfig{})
	a := m.Malloc(8)
	t := m.Malloc(8)
	Relocate(m, a, t, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.FinalAddr(a) != t {
			b.Fatal("wrong final address")
		}
	}
}

// BenchmarkAblationHopCost sweeps the per-hop exception cost on SMV —
// the design choice between a hardware chase (cheap) and a trap-based
// implementation (expensive).
func BenchmarkAblationHopCost(b *testing.B) {
	for _, cost := range []int64{1, 4, 16, 64} {
		b.Run(benchName("hopCost", int(cost)), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				m := NewMachine(MachineConfig{PerHopCost: cost})
				MustApp("smv").Run(m, AppConfig{Seed: 9, Opt: true})
				cycles = m.Finalize().Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationMSHRs sweeps the miss-level parallelism available to
// the unoptimized health run.
func BenchmarkAblationMSHRs(b *testing.B) {
	for _, n := range []int{1, 2, 8} {
		b.Run(benchName("mshrs", n), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				m := NewMachine(MachineConfig{L1MSHRs: n})
				MustApp("health").Run(m, AppConfig{Seed: 9})
				cycles = m.Finalize().Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationBHCluster sweeps BH's cluster size at a 256-byte
// line, probing the paper's claim that 88-byte cells need long lines.
func BenchmarkAblationBHCluster(b *testing.B) {
	for _, line := range []int{64, 128, 256} {
		b.Run(benchName("line", line), func(b *testing.B) {
			var sp float64
			for i := 0; i < b.N; i++ {
				n := RunOne(MustApp("bh"), line, VariantN, 0, benchOptions())
				l := RunOne(MustApp("bh"), line, VariantL, 0, benchOptions())
				sp = l.Speedup(n)
			}
			b.ReportMetric(sp, "speedup")
		})
	}
}

func benchName(k string, v int) string {
	return fmt.Sprintf("%s=%d", k, v)
}

// BenchmarkLoadObsDisabled measures the per-load cost of the
// observability layer when nothing is attached — the nil-tracer /
// nil-sampler fast path. It must report 0 allocs/op; compare ns/op
// against BenchmarkLoadObsTracing for the enabled-path cost.
func BenchmarkLoadObsDisabled(b *testing.B) {
	m := NewMachine(MachineConfig{})
	a := m.Malloc(8)
	m.StoreWord(a, 42)
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += m.LoadWord(a)
	}
	_ = sum
}

// BenchmarkLoadObsTracing is the same load loop with a ring tracer and
// sampler attached — the price of turning observability on.
func BenchmarkLoadObsTracing(b *testing.B) {
	m := NewMachine(MachineConfig{})
	m.SetTracer(NewRingTracer(4096))
	m.SetSampleEvery(100000, &SampleSeries{})
	a := m.Malloc(8)
	m.StoreWord(a, 42)
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += m.LoadWord(a)
	}
	_ = sum
}

// BenchmarkExtensionFalseSharing regenerates the multiprocessor
// false-sharing demonstration (Section 2.2's application).
func BenchmarkExtensionFalseSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, _ := RunFalseSharing(benchOptions())
		if len(tab.Rows) != 2 {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkAblationStaticPlacement contrasts Section 1's two layout
// strategies on eqntott. Static placement packs chunks but can only use
// allocation order; relocation runs after the build and packs in the
// order the hot loop traverses. Expected ordering: N slowest, Static in
// between, L (relocation) fastest — the adaptivity argument for
// relocation.
func BenchmarkAblationStaticPlacement(b *testing.B) {
	a := MustApp("eqntott")
	for _, mode := range []string{"N", "L", "Static"} {
		b.Run(mode, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				m := NewMachine(MachineConfig{LineSize: 128})
				cfg := AppConfig{Seed: 9}
				switch mode {
				case "L":
					cfg.Opt = true
				case "Static":
					cfg.Static = true
				}
				a.Run(m, cfg)
				cycles = m.Finalize().Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}
