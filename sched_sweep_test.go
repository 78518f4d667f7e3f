package memfwd

import (
	"bytes"
	"fmt"
	"testing"

	"memfwd/internal/oracle"
	"memfwd/internal/sched"
	"memfwd/internal/sim"
)

// TestScheduleSweep is the whole-benchmark-suite form of the
// concurrency contract: every registered application, run with its
// layout optimizations on, must produce the same checksum and the same
// heap digest (modulo forwarding) whether it runs single-hart or with
// relocator harts racing it — at any hart count, under any scheduling
// seed. The reference for each app is its plain single-hart run.
func TestScheduleSweep(t *testing.T) {
	type ref struct {
		sum uint64
		dig uint64
	}
	cfg := AppConfig{Opt: true, Seed: 9, Scale: 1}
	refs := map[string]ref{}
	for _, a := range Apps() {
		m := sim.New(sim.Config{})
		res := a.Run(m, cfg)
		m.Finalize()
		d, err := oracle.DigestModuloForwarding(m.Mem, m.Fwd, m.Alloc)
		if err != nil {
			t.Fatalf("%s: reference digest: %v", a.Name, err)
		}
		refs[a.Name] = ref{sum: res.Checksum, dig: d}
	}

	// harts=1 has no relocator harts — the group is transparent and the
	// seed is inert, so one seed covers it; the racing hart counts get
	// the full seed sweep. -short trims seeds, never hart counts or
	// apps: every cell shape still runs.
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:2]
	}
	grid := []struct {
		harts int
		seeds []int64
	}{
		{1, []int64{1}},
		{2, seeds},
		{4, seeds},
	}
	for _, cell := range grid {
		harts := cell.harts
		for _, schedSeed := range cell.seeds {
			for _, a := range Apps() {
				a := a
				name := fmt.Sprintf("%s/harts=%d/seed=%d", a.Name, harts, schedSeed)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					m := sim.New(sim.Config{Harts: harts})
					g, err := sched.New(m, sched.Config{Harts: harts, Seed: schedSeed})
					if err != nil {
						t.Fatal(err)
					}
					res := a.Run(g, cfg)
					g.Quiesce()
					m.Finalize()
					want := refs[a.Name]
					if res.Checksum != want.sum {
						t.Errorf("checksum %#x, want %#x", res.Checksum, want.sum)
					}
					d, err := oracle.DigestModuloForwarding(m.Mem, m.Fwd, m.Alloc)
					if err != nil {
						t.Fatal(err)
					}
					if d != want.dig {
						t.Errorf("digest %#x, want %#x", d, want.dig)
					}
					if err := oracle.CheckMachine(m); err != nil {
						t.Errorf("invariants: %v", err)
					}
				})
			}
		}
	}
}

// TestScheduleSweepEngineDeterminism: the experiment engine encodes
// multi-hart matrices byte-identically at any worker count, and a
// harts=1 Options value leaves the encoding byte-identical to one that
// never mentions harts at all (the -harts 1 CLI default cannot perturb
// the published figures).
func TestScheduleSweepEngineDeterminism(t *testing.T) {
	encode := func(o Options) []byte {
		var buf bytes.Buffer
		lr := RunLocality(o)
		if err := WriteJSON(&buf, lr.Runs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	multi1 := encode(Options{Seed: 9, Lines: []int{32}, Jobs: 1, Harts: 4, SchedSeed: 3})
	multi8 := encode(Options{Seed: 9, Lines: []int{32}, Jobs: 8, Harts: 4, SchedSeed: 3})
	if !bytes.Equal(multi1, multi8) {
		t.Error("harts=4 RunLocality JSON differs between jobs=1 and jobs=8")
	}
	plain := encode(Options{Seed: 9, Lines: []int{32}})
	one := encode(Options{Seed: 9, Lines: []int{32}, Harts: 1})
	if !bytes.Equal(plain, one) {
		t.Error("harts=1 changes the RunLocality encoding (must be byte-identical to no harts option)")
	}
}

// TestRunOneSchedStats: RunOne surfaces the group's accounting on
// multi-hart runs and omits it entirely otherwise.
func TestRunOneSchedStats(t *testing.T) {
	a := MustApp("health")
	r := RunOne(a, 32, VariantL, 0, Options{Seed: 9, Harts: 4, SchedSeed: 2})
	if r.Sched == nil {
		t.Fatal("harts=4 run carries no Sched stats")
	}
	if r.Sched.Relocations == 0 {
		t.Error("harts=4 run committed no concurrent relocations")
	}
	single := RunOne(a, 32, VariantL, 0, Options{Seed: 9})
	if single.Sched != nil {
		t.Error("single-hart run unexpectedly carries Sched stats")
	}
	if single.Result.Checksum != r.Result.Checksum {
		t.Errorf("checksum diverged: harts=4 %#x, harts=1 %#x", r.Result.Checksum, single.Result.Checksum)
	}
}

// TestTierCellHonorsHarts: a tiering cell runs through RunOne like every
// other figure cell, so -harts reaches it. The migrator daemon wraps the
// scheduling group, both report their accounting, and the checksum
// matches the flat single-hart reference. mst, the smallest workload,
// keeps the package's -race run short.
func TestTierCellHonorsHarts(t *testing.T) {
	a := MustApp("mst")
	r := RunOne(a, 0, VariantAdaptive, 0, Options{Seed: 9, Harts: 2})
	if r.Tier == nil || r.Sched == nil {
		t.Fatalf("adaptive harts=2 cell: Tier %v, Sched %v; want both", r.Tier, r.Sched)
	}
	if r.Sched.Relocations == 0 {
		t.Error("adaptive harts=2 cell committed no concurrent relocations")
	}
	flat := RunOne(a, 0, VariantFlat, 0, Options{Seed: 9})
	if flat.Tier != nil || flat.Sched != nil {
		t.Errorf("flat single-hart cell carries Tier %v / Sched %v", flat.Tier, flat.Sched)
	}
	if r.Result.Checksum != flat.Result.Checksum {
		t.Errorf("checksum diverged: adaptive harts=2 %#x, flat %#x", r.Result.Checksum, flat.Result.Checksum)
	}
}
