// Package serve is the long-running session server over the simulator:
// a pool of sim.Machines sharded across worker shards, driven by many
// concurrent HTTP clients through create-session / op / step /
// snapshot / restore / migrate / stats requests. The enabling
// primitive is the full machine snapshot (sim.SaveState/LoadState):
// because the entire architectural and micro-architectural state of a
// machine can be captured byte-exactly and re-instantiated elsewhere,
// a session can be captured mid-run — even mid-chaos-episode — and
// restored on any shard with bit-identical behaviour. Every shard
// lives in this process, so live migration moves no machine state: it
// relabels the session's shard and re-bases its relocation cursor.
//
// Concurrency model, in one paragraph: every session's machine is
// touched by exactly one goroutine at a time. Raw sessions serialize
// guest operations under the session mutex. App sessions run the
// application on a dedicated runner goroutine that executes against a
// machine proxy; the proxy charges every guest operation against a
// budget gate, so the runner only ever advances when a client has
// granted budget via /step, and parks between operations otherwise.
// Control-plane work that reads the machine (digest, snapshot, stats)
// first parks the runner at an operation boundary (gate.pause), does
// its work, and lets the runner continue — the gate's mutex provides
// the happens-before edge that makes the machine hand-off race-clean.
package serve

import "sync"

// killed is the sentinel panic value used to unwind a parked runner
// goroutine out of a session that is being deleted mid-run.
type killed struct{}

// gate meters a runner goroutine in guest operations. The runner calls
// tick before every counted operation; controllers grant budget with
// step, park the runner with pause/resume, and tear it down with kill.
type gate struct {
	mu   sync.Mutex
	cond *sync.Cond

	budget int64 // operations the runner may still perform
	paused int   // pause depth; > 0 parks the runner at the next tick
	parked bool  // runner is waiting inside tick
	done   bool  // runner returned (normally or by panic)
	killed bool  // next tick must unwind the runner
	used   int64 // total operations consumed over the session's life
}

func newGate() *gate {
	g := &gate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// tick consumes one unit of budget, parking until budget is available
// and no pause is in force. Called by the proxy before every counted
// guest operation (loads, stores, mallocs, frees); panics with killed
// when the session is being torn down.
func (g *gate) tick() {
	g.mu.Lock()
	for (g.budget <= 0 || g.paused > 0) && !g.killed {
		g.parked = true
		g.cond.Broadcast()
		g.cond.Wait()
	}
	g.parked = false
	if g.killed {
		g.mu.Unlock()
		panic(killed{})
	}
	g.budget--
	g.used++
	if g.budget == 0 {
		g.cond.Broadcast() // wake a step waiter: grant exhausted
	}
	g.mu.Unlock()
}

// step grants n additional guest operations and blocks until they are
// consumed or the run finishes, returning the total operations consumed
// so far and whether the run is done. A pause in force does not abort
// the grant — the runner resumes consuming it once resumed. A
// non-positive n grants nothing and returns the current state
// immediately: it must not turn into a wait on budget some *earlier*
// step granted (the HTTP layer rejects such requests, but the gate is
// safe against them regardless).
func (g *gate) step(n int64) (used int64, done bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n <= 0 {
		return g.used, g.done
	}
	g.budget += n
	g.cond.Broadcast()
	for g.budget > 0 && !g.done {
		g.cond.Wait()
	}
	return g.used, g.done
}

// drain blocks until every previously granted operation is consumed or
// the run finishes — the wait-only behaviour step(0) used to have by
// accident, as an explicit primitive for controllers that want it.
func (g *gate) drain() (used int64, done bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.budget > 0 && !g.done {
		g.cond.Wait()
	}
	return g.used, g.done
}

// pause parks the runner at its next operation boundary and returns
// once it is parked (or the run has finished). Callers own the machine
// until the matching resume. Pauses nest.
func (g *gate) pause() {
	g.mu.Lock()
	g.paused++
	for !g.parked && !g.done {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// resume undoes one pause.
func (g *gate) resume() {
	g.mu.Lock()
	g.paused--
	g.cond.Broadcast()
	g.mu.Unlock()
}

// kill unwinds the runner (its next tick panics with the killed
// sentinel, which the runner recovers) and waits for it to finish.
// Safe to call on an already-finished run.
func (g *gate) kill() {
	g.mu.Lock()
	g.killed = true
	g.cond.Broadcast()
	for !g.done {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// finish marks the run complete; called by the runner on the way out.
func (g *gate) finish() {
	g.mu.Lock()
	g.done = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// ops returns the total operations consumed so far.
func (g *gate) ops() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.used
}

// finished reports whether the run is done.
func (g *gate) finished() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.done
}
