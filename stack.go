package memfwd

import (
	"memfwd/internal/apps/app"
	"memfwd/internal/obs"
	"memfwd/internal/oracle"
	"memfwd/internal/sched"
	"memfwd/internal/tier"
)

// Stack is a guest machine wrapped in the relocating agents one run
// asks for; a nil agent is one it did not ask for. Memory forwarding
// makes every relocation safe, so the agents share the heap, in one
// order: the scheduling group innermost, so its relocator harts race
// the guest's own operations; the tiering daemon around it, so its
// migrations hit the group's relocation barrier like any agent's; the
// chaos adversary outermost, so it perturbs the daemon's view as an
// agent outside the program would.
type Stack struct {
	Guest  app.Machine // the outermost machine: the guest runs on it
	Group  *sched.Group
	Daemon *tier.Daemon
	Chaos  *oracle.Relocator
}

// NewStack wraps base, m itself or a host's proxy over m, in the
// scheduling group when sc.Harts > 1, the tiering daemon when tc.Tiers
// is set, and the chaos adversary (seeded with chaosSeed, acting every
// chaosEvery guest operations on average) when chaosSeed is non-zero.
// The daemon ranks from a heat map NewStack installs on m, sized to
// track the whole heap, so observers of m's heat map attach after
// NewStack; a span table the relocator harts record into must be on m
// before.
func NewStack(m *Machine, base app.Machine, sc sched.Config, tc tier.Config, chaosSeed int64, chaosEvery int) (*Stack, error) {
	s := &Stack{Guest: base}
	if sc.Harts > 1 {
		g, err := sched.New(s.Guest, sc)
		if err != nil {
			return nil, err
		}
		s.Group, s.Guest = g, g
	}
	if tc.Tiers != nil {
		tc.Heat = obs.NewHeatMap(tier.HeatObjects, 0)
		m.SetHeatMap(tc.Heat)
		s.Daemon = tier.New(s.Guest, tc)
		s.Guest = s.Daemon
	}
	if chaosSeed != 0 {
		s.Chaos = oracle.NewRelocator(s.Guest, chaosSeed, chaosEvery)
		s.Guest = s.Chaos
	}
	return s, nil
}

// Run runs a on the guest, then quiesces the stack.
func (s *Stack) Run(a App, cfg AppConfig) AppResult {
	res := a.Run(s.Guest, cfg)
	s.Quiesce()
	return res
}

// Quiesce drives the relocator harts' in-flight moves, which machine
// state cannot capture, to completion and parks the machine on the
// guest hart.
func (s *Stack) Quiesce() {
	if s.Group != nil {
		s.Group.Quiesce()
	}
}

// Stats returns the group's and the daemon's accounting, nil for an
// agent the stack does not have.
func (s *Stack) Stats() (gs *SchedStats, ts *TierStats) {
	if s.Group != nil {
		st := s.Group.Stats()
		gs = &st
	}
	if s.Daemon != nil {
		st := s.Daemon.Stats()
		ts = &st
	}
	return gs, ts
}
