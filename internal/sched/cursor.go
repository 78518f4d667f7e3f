package sched

import (
	"fmt"

	"memfwd/internal/agent"
	"memfwd/internal/mem"
)

// Cursor is the scheduler's complete resumable state: the generator
// word, the launch countdown, block tracking, arena and budget cursors,
// and the accounting. A Group restored from a Cursor (on any process,
// any shard) makes decisions identical to the source group's — the
// scheduler side of the snapshot/restore determinism contract
// (DESIGN.md §10), extended to multi-hart sessions. All fields are
// exported plain data so the cursor serializes with the machine state.
//
// A cursor captures no in-flight jobs: Cursor requires a quiescent
// group (call Quiesce first), which also parks the underlying machine
// on the guest hart — exactly the state sim.SaveState demands.
type Cursor struct {
	RngState   uint64
	Countdown  int
	GuestHart  int
	WordBudget int64
	ArenaNext  mem.Addr
	ArenaEnd   mem.Addr
	Blocks     []mem.Addr
	Faults     bool
	Stats      Stats
}

// Cursor captures the scheduler state. The group must be idle: no job
// in flight on any hart (Quiesce guarantees this).
func (g *Group) Cursor() Cursor {
	for _, h := range g.harts {
		if h.job != nil && !h.dead {
			panic(fmt.Sprintf("sched: Cursor with a job in flight on hart %d (Quiesce first)", h.id))
		}
	}
	return Cursor{
		RngState:   g.rng.state,
		Countdown:  g.clock.Countdown,
		GuestHart:  g.guestHart,
		WordBudget: g.arena.Budget,
		ArenaNext:  g.arena.Next,
		ArenaEnd:   g.arena.End,
		Blocks:     append([]mem.Addr(nil), g.victims...),
		Faults:     g.faults,
		Stats:      g.stats,
	}
}

// SetCursor restores a cursor captured from an equal-configured group.
// The group must be idle (freshly built, or quiesced).
func (g *Group) SetCursor(c Cursor) error {
	for _, h := range g.harts {
		if h.job != nil && !h.dead {
			return fmt.Errorf("sched: SetCursor with a job in flight on hart %d", h.id)
		}
	}
	if c.GuestHart < 0 || c.GuestHart >= g.cfg.Harts {
		return fmt.Errorf("sched: cursor guest hart %d out of range (harts=%d)", c.GuestHart, g.cfg.Harts)
	}
	g.rng.state = c.RngState
	g.clock.Countdown = c.Countdown
	g.arena = agent.Arena{Next: c.ArenaNext, End: c.ArenaEnd, Budget: c.WordBudget}
	g.victims = append(g.victims[:0], c.Blocks...)
	g.faults = c.Faults
	g.stats = c.Stats
	g.SetGuestHart(c.GuestHart)
	return nil
}
