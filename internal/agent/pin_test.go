package agent_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memfwd/internal/apps/app"
	"memfwd/internal/apps/health"
	"memfwd/internal/apps/mst"
	"memfwd/internal/mem"
	"memfwd/internal/obs"
	"memfwd/internal/oracle"
	"memfwd/internal/sched"
	"memfwd/internal/sim"
	"memfwd/internal/tier"
)

// TestAgentDecisionsPinned runs health and mst under all three agents
// at once — the chaos adversary with faults, over a faulted 2-hart
// scheduling group — once on the functional oracle and once on a
// 2-tier timing simulator with the tiering daemon between chaos and the
// group, and pins every agent counter, the scheduler and daemon stats,
// the simulator stats, the result and the heap digest to golden files.
// Any change to what an agent draws, picks, or moves, or in what order,
// shows up here. Regenerate with:
//
//	UPDATE_GOLDEN=1 go test -run TestAgentDecisionsPinned ./internal/agent
func TestAgentDecisionsPinned(t *testing.T) {
	for _, a := range []app.App{health.App, mst.App} {
		cfg := app.Config{Seed: 11, Opt: true}
		t.Run("oracle/"+a.Name, func(t *testing.T) {
			checkPin(t, "oracle-"+a.Name, pinOracle(t, a, cfg))
		})
		t.Run("sim/"+a.Name, func(t *testing.T) {
			if testing.Short() {
				t.Skip("timed half skipped in -short mode")
			}
			checkPin(t, "sim-"+a.Name, pinSim(t, a, cfg))
		})
	}
}

// TestNoStaleInjector is the stale-injector regression test, on the
// oracle stack of the pin above (chaos with faults over a faulted
// 2-hart group, health, seed 11). Movers once shared the machine's one
// injector slot: a faulted chaos move restored the injector it had
// read before installing its own, which could be a faulted hart job's
// still in flight, so the finished job's injector stayed installed and
// blocked every later hart launch — the group stopped after 93 commits.
// With every injector in its mover's own relocation context, the slot
// is empty after the run and the group keeps launching to the end.
func TestNoStaleInjector(t *testing.T) {
	if testing.Short() {
		t.Skip("repeats the oracle/health pin's run; skipped in -short mode")
	}
	eff := sim.New(sim.Config{}).Config()
	om := oracle.New(oracle.Config{LineSize: eff.LineSize, HeapBase: eff.HeapBase, HeapLimit: eff.HeapLimit})
	grp, rel := pinStack(t, om, func(g app.Machine) app.Machine { return g })
	w := &launchWatch{grp: grp}
	w.Interceptor = app.NewInterceptor(rel, w)
	health.App.Run(w, app.Config{Seed: 11, Opt: true})
	grp.Quiesce()
	if inj := om.FaultInjector(); inj != nil {
		t.Fatalf("machine's injector slot holds an injector after the run (shots %v); no mover may install one", inj.Shots)
	}
	if st := grp.Stats(); st.Relocations < 10*93 || st.Faulted == 0 {
		t.Fatalf("group committed %d relocations (%d faulted); want at least 930 with faults", st.Relocations, st.Faulted)
	}
	if w.last < w.ops*9/10 {
		t.Fatalf("group's last commit came at guest op %d of %d; want it in the final tenth of the run", w.last, w.ops)
	}
}

// launchWatch counts guest data operations and notes the last one at
// which the group's committed relocations had grown.
type launchWatch struct {
	app.Interceptor
	grp       *sched.Group
	ops, last int
	committed int
}

func (w *launchWatch) op() {
	w.ops++
	if n := w.grp.Stats().Relocations; n > w.committed {
		w.committed, w.last = n, w.ops
	}
}

func (w *launchWatch) Load(a mem.Addr, size uint) uint64 {
	w.op()
	return w.Machine.Load(a, size)
}

func (w *launchWatch) Store(a mem.Addr, v uint64, size uint) {
	w.op()
	w.Machine.Store(a, v, size)
}

func (w *launchWatch) Malloc(n uint64) mem.Addr {
	w.op()
	return w.Machine.Malloc(n)
}

func (w *launchWatch) Free(a mem.Addr) {
	w.op()
	w.Machine.Free(a)
}

func pinOracle(t *testing.T, a app.App, cfg app.Config) string {
	eff := sim.New(sim.Config{}).Config()
	om := oracle.New(oracle.Config{LineSize: eff.LineSize, HeapBase: eff.HeapBase, HeapLimit: eff.HeapLimit})
	grp, rel := pinStack(t, om, func(g app.Machine) app.Machine { return g })
	res := a.Run(rel, cfg)
	grp.Quiesce()
	var b strings.Builder
	pinCommon(t, &b, res, om, rel, grp)
	return b.String()
}

func pinSim(t *testing.T, a app.App, cfg app.Config) string {
	tc := mem.DefaultTierConfig(2, sim.DefaultConfig().MemLatency)
	m := sim.New(sim.Config{Harts: 2, Tiers: tc})
	heat := obs.NewHeatMap(1<<16, 0)
	m.SetHeatMap(heat)
	var d *tier.Daemon
	grp, rel := pinStack(t, m, func(g app.Machine) app.Machine {
		d = tier.New(g, tier.Config{Tiers: tc, Seed: 5, Heat: heat})
		return d
	})
	res := a.Run(rel, cfg)
	grp.Quiesce()
	st := m.Finalize()
	var b strings.Builder
	pinCommon(t, &b, res, m, rel, grp)
	fmt.Fprintf(&b, "tier    %+v\n", d.Stats())
	fmt.Fprintf(&b, "sim     %+v\n", *st)
	if err := oracle.CheckMachine(m); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// pinStack builds chaos(faults) over mid(faulted 2-hart group over m).
func pinStack(t *testing.T, m app.Machine, mid func(app.Machine) app.Machine) (*sched.Group, *oracle.Relocator) {
	grp, err := sched.New(m, sched.Config{Harts: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	grp.EnableFaults()
	rel := oracle.NewRelocator(mid(grp), 7, 0)
	rel.EnableFaults(nil)
	return grp, rel
}

func pinCommon(t *testing.T, b *strings.Builder, res app.Result, m app.Machine, rel *oracle.Relocator, grp *sched.Group) {
	dig, err := oracle.DigestModuloForwarding(m.Memory(), m.Forwarder(), m.Allocator())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "result  %+v\n", res)
	fmt.Fprintf(b, "digest  %#x\n", dig)
	fmt.Fprintf(b, "chaos   relocations=%d lengthenings=%d probes=%d cyclic=%d injected=%d repaired=%d\n",
		rel.Relocations, rel.Lengthenings, rel.Probes, rel.CyclicProbes, rel.FaultsInjected, rel.FaultsRepaired)
	fmt.Fprintf(b, "sched   %+v\n", grp.Stats())
}

func checkPin(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1): %v", err)
	}
	if string(want) != got {
		t.Errorf("agent decisions moved (%s):\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
