package oracle

import (
	"fmt"

	"memfwd/internal/apps/app"
	"memfwd/internal/fault"
	"memfwd/internal/obs"
	"memfwd/internal/sched"
	"memfwd/internal/sim"
)

// RunDifferential executes app a under cfg twice — once on the full
// out-of-order timing simulator and once on the functional oracle —
// and returns an error describing the first divergence in functional
// behaviour: the app.Result (checksum, relocation count, space
// overhead), the final-heap digest modulo forwarding, or any machine
// invariant. A nil error is the mechanically-checked statement that
// the timing machinery (pipeline, caches, provenance, hop costs,
// traps' overhead accounting) had no functional effect on this run.
func RunDifferential(simCfg sim.Config, a app.App, cfg app.Config) error {
	sm := sim.New(simCfg)
	eff := sm.Config()
	simRes := a.Run(sm, cfg)
	sm.Finalize()

	om := New(Config{LineSize: eff.LineSize, HeapBase: eff.HeapBase, HeapLimit: eff.HeapLimit})
	oRes := a.Run(om, cfg)

	if simRes != oRes {
		return fmt.Errorf("oracle: %s diverged: sim result %+v, oracle result %+v", a.Name, simRes, oRes)
	}
	simDig, err := DigestModuloForwarding(sm.Mem, sm.Fwd, sm.Alloc)
	if err != nil {
		return fmt.Errorf("oracle: %s sim digest: %w", a.Name, err)
	}
	oDig, err := DigestModuloForwarding(om.Mem, om.Fwd, om.Alloc)
	if err != nil {
		return fmt.Errorf("oracle: %s oracle digest: %w", a.Name, err)
	}
	if simDig != oDig {
		return fmt.Errorf("oracle: %s heap digests diverged: sim %#x, oracle %#x", a.Name, simDig, oDig)
	}
	if err := CheckMachine(sm); err != nil {
		return fmt.Errorf("oracle: %s sim invariants: %w", a.Name, err)
	}
	if err := CheckForwarding(om.Mem, om.Fwd); err != nil {
		return fmt.Errorf("oracle: %s oracle invariants: %w", a.Name, err)
	}
	return nil
}

// ChaosConfig parameterizes one chaos episode.
type ChaosConfig struct {
	// Seed drives the adversary; a failing episode replays from it.
	Seed int64

	// Interval is the mean number of guest operations between chaos
	// actions (0 takes the Relocator default).
	Interval int

	// Timed runs the chaos-wrapped guest on the full timing simulator
	// (expensive, exercises pipeline/cache interplay with adversarial
	// chains); false runs it on a second oracle (cheap, pure
	// functional semantics).
	Timed bool

	// SimCfg configures the simulator for the Timed variant and
	// supplies the heap/line geometry for both (zero fields take
	// simulator defaults).
	SimCfg sim.Config

	// Faults adds fault-injected relocations to the adversary's
	// repertoire: crashes at arbitrary instruction boundaries inside
	// relocation, forwarding-word bit flips, spurious fbit transitions
	// — each recovered, journal-repaired, and verified. The episode
	// still demands bit-identical guest results.
	Faults bool

	// FaultKinds restricts the injected kinds when Faults is set
	// (nil = all kinds).
	FaultKinds []fault.Kind

	// Spans, when non-nil, is attached to the chaos-wrapped machine so
	// every adversarial relocation — committed, aborted, or torn —
	// lands in the caller's flight recorder. Callers may share one
	// table across episodes to aggregate phase-cost quantiles.
	Spans *obs.SpanTable

	// Harts, when > 1, additionally runs the chaos-wrapped guest inside
	// a multi-hart scheduling group (internal/sched): Harts-1 relocator
	// harts race the guest's loads and stores with concurrent
	// relocations under a deterministic seeded interleaving, stacked
	// beneath the (atomic) chaos adversary. With Faults set the group
	// also injects crashes mid-relocation under contention. SchedSeed
	// seeds the interleaving (0 takes Seed); SchedInterval is the mean
	// guest operations between job launches (0 takes the default).
	Harts         int
	SchedSeed     int64
	SchedInterval int
}

// ChaosEpisode runs app a under cfg once unperturbed on the oracle and
// once wrapped in a seeded chaos Relocator, then demands identical
// results and identical heap digests modulo forwarding, plus clean
// invariant sweeps. It returns the adversary's statistics so callers
// can assert the episode actually exercised relocation.
func ChaosEpisode(a app.App, cfg app.Config, ch ChaosConfig) (*Relocator, error) {
	eff := sim.New(ch.SimCfg).Config()
	ocfg := Config{LineSize: eff.LineSize, HeapBase: eff.HeapBase, HeapLimit: eff.HeapLimit}

	base := New(ocfg)
	baseRes := a.Run(base, cfg)
	baseDig, err := DigestModuloForwarding(base.Mem, base.Fwd, base.Alloc)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s baseline digest: %w", a.Name, err)
	}

	var inner app.Machine
	var sm *sim.Machine
	if ch.Timed {
		simCfg := ch.SimCfg
		if ch.Harts > simCfg.Harts {
			simCfg.Harts = ch.Harts
		}
		sm = sim.New(simCfg)
		sm.SetSpans(ch.Spans)
		inner = sm
	} else {
		om := New(ocfg)
		om.SetSpans(ch.Spans)
		inner = om
	}
	var grp *sched.Group
	if ch.Harts > 1 {
		schedSeed := ch.SchedSeed
		if schedSeed == 0 {
			schedSeed = ch.Seed
		}
		var err error
		grp, err = sched.New(inner, sched.Config{
			Harts: ch.Harts, Seed: schedSeed, Interval: ch.SchedInterval,
		})
		if err != nil {
			return nil, fmt.Errorf("oracle: %s chaos scheduler: %w", a.Name, err)
		}
		if ch.Faults {
			grp.EnableFaults()
		}
		inner = grp
	}
	rel := NewRelocator(inner, ch.Seed, ch.Interval)
	if ch.Faults {
		rel.EnableFaults(ch.FaultKinds)
	}
	chaosRes := a.Run(rel, cfg)
	if grp != nil {
		grp.Quiesce()
	}
	if sm != nil {
		sm.Finalize()
	}

	if chaosRes != baseRes {
		return rel, fmt.Errorf("oracle: %s chaos(seed=%d) diverged: %+v, want %+v",
			a.Name, ch.Seed, chaosRes, baseRes)
	}
	chaosDig, err := DigestModuloForwarding(inner.Memory(), inner.Forwarder(), inner.Allocator())
	if err != nil {
		return rel, fmt.Errorf("oracle: %s chaos(seed=%d) digest: %w", a.Name, ch.Seed, err)
	}
	if chaosDig != baseDig {
		return rel, fmt.Errorf("oracle: %s chaos(seed=%d) heap digest diverged: %#x, want %#x",
			a.Name, ch.Seed, chaosDig, baseDig)
	}
	if sm != nil {
		if err := CheckMachine(sm); err != nil {
			return rel, fmt.Errorf("oracle: %s chaos(seed=%d) invariants: %w", a.Name, ch.Seed, err)
		}
	} else if err := CheckForwarding(inner.Memory(), inner.Forwarder()); err != nil {
		return rel, fmt.Errorf("oracle: %s chaos(seed=%d) invariants: %w", a.Name, ch.Seed, err)
	}
	return rel, nil
}
