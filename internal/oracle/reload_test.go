package oracle_test

import (
	"testing"

	"memfwd"
	"memfwd/internal/apps/app"
	"memfwd/internal/mem"
	"memfwd/internal/oracle"
	"memfwd/internal/sim"
)

// reloader is a host that moves its guest onto a fresh machine mid-run.
// It counts the four guest operations a served session's step gate
// counts (loads, stores, mallocs, frees), and before the operation
// that follows each quantum of 1024·2^k of them (doubling up to 2^20)
// it loads a new sim.Machine from the current one's SaveState and
// rebinds to it.
type reloader struct {
	app.Interceptor
	t       *testing.T
	m       *sim.Machine // the Interceptor's machine, typed
	ops     int64
	next    int64 // ops at which the next reload happens
	quantum int64
	reloads int
}

func newReloader(t *testing.T, m *sim.Machine) *reloader {
	r := &reloader{t: t, m: m, next: 1024, quantum: 1024}
	r.Interceptor = app.NewInterceptor(m, r)
	return r
}

func (r *reloader) tick() {
	if r.ops == r.next {
		nm := sim.New(r.m.Config())
		if err := nm.LoadState(r.m.SaveState()); err != nil {
			r.t.Fatalf("reload %d at op %d: %v", r.reloads, r.ops, err)
		}
		r.m, r.Machine = nm, nm
		r.reloads++
		if r.quantum < 1<<20 {
			r.quantum *= 2
		}
		r.next += r.quantum
	}
	r.ops++
}

func (r *reloader) Load(a mem.Addr, size uint) uint64 {
	r.tick()
	return r.m.Load(a, size)
}

func (r *reloader) Store(a mem.Addr, v uint64, size uint) {
	r.tick()
	r.m.Store(a, v, size)
}

func (r *reloader) Malloc(n uint64) mem.Addr {
	r.tick()
	return r.m.Malloc(n)
}

func (r *reloader) Free(a mem.Addr) {
	r.tick()
	r.m.Free(a)
}

// TestReloadMidChaosContinuesExactly: a machine loaded from a mid-run
// SaveState continues exactly where the saved one stood. Every
// application runs under the chaos adversary on a host that reloads
// its machine again and again at operation boundaries, even
// mid-chaos-episode, and must finish with the result, heap digest,
// adversary counters and full statistics, cycles included, of an
// undisturbed control run.
func TestReloadMidChaosContinuesExactly(t *testing.T) {
	apps := memfwd.Apps()
	if testing.Short() {
		apps = apps[:3] // compress, eqntott, bh
	}
	const (
		chaosSeed = 99
		appSeed   = 7
	)
	for _, a := range apps {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			appCfg := app.Config{Opt: true, Seed: appSeed}

			ctrl := sim.New(sim.Config{})
			crel := oracle.NewRelocator(ctrl, chaosSeed, 0)
			wantRes := a.Run(crel, appCfg)
			wantStats := ctrl.Finalize()
			wantDig, err := oracle.DigestModuloForwarding(ctrl.Mem, ctrl.Fwd, ctrl.Alloc)
			if err != nil {
				t.Fatalf("control digest: %v", err)
			}

			r := newReloader(t, sim.New(sim.Config{}))
			rel := oracle.NewRelocator(r, chaosSeed, 0)
			gotRes := a.Run(rel, appCfg)
			fm := r.m
			gotStats := fm.Finalize()
			if r.reloads < 3 {
				t.Fatalf("only %d reloads; app too short for the proof", r.reloads)
			}

			if gotRes != wantRes {
				t.Errorf("result diverged:\n  reloaded %+v\n  control  %+v", gotRes, wantRes)
			}
			gotDig, err := oracle.DigestModuloForwarding(fm.Mem, fm.Fwd, fm.Alloc)
			if err != nil {
				t.Fatalf("reloaded digest: %v", err)
			}
			if gotDig != wantDig {
				t.Errorf("digest diverged: reloaded %#x, control %#x", gotDig, wantDig)
			}
			if err := oracle.CheckMachine(fm); err != nil {
				t.Errorf("reloaded machine invariants: %v", err)
			}
			if rel.Relocations != crel.Relocations || rel.Lengthenings != crel.Lengthenings ||
				rel.Probes != crel.Probes || rel.CyclicProbes != crel.CyclicProbes {
				t.Errorf("adversary diverged:\n  reloaded reloc=%d length=%d probes=%d cyclic=%d\n  control  reloc=%d length=%d probes=%d cyclic=%d",
					rel.Relocations, rel.Lengthenings, rel.Probes, rel.CyclicProbes,
					crel.Relocations, crel.Lengthenings, crel.Probes, crel.CyclicProbes)
			}
			if crel.Relocations == 0 {
				t.Error("adversary performed no relocations; proof is vacuous")
			}
			if *gotStats != *wantStats {
				t.Errorf("stats diverged after %d reloads:\n  reloaded %+v\n  control  %+v", r.reloads, *gotStats, *wantStats)
			}
		})
	}
}
