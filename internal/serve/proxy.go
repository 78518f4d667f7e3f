package serve

import (
	"memfwd/internal/apps/app"
	"memfwd/internal/mem"
	"memfwd/internal/sim"
)

// proxy is the rebindable machine an app session's runner executes
// against. It passes every app.Machine operation to the current
// *sim.Machine and charges the four guest-visible heap operations
// (loads, stores, mallocs, frees) against the session's gate — the
// same operations every agent clock counts, so one /step unit means
// one guest operation in every accounting. Machine
// state the guest installs (the trap handler, a fault injector) lives
// on the machine and travels with snapshots.
//
// swap rebinds the proxy to a different machine. It may only be called
// while the runner is parked (gate.pause): the write happens under the
// gate mutex, and the parked runner's next read of the machine follows
// its re-acquisition of that mutex inside tick, which establishes the
// happens-before edge. Operations that do not tick (the relocation
// primitives TryRelocate is built from — UnforwardedRead/Write, Inst,
// Forwarder) run only between ticks on the runner goroutine, so they
// are ordered the same way; a relocation is therefore atomic with
// respect to migration.
type proxy struct {
	app.Interceptor
	g *gate
	m *sim.Machine // the Interceptor's machine, typed
}

func newProxy(g *gate, m *sim.Machine) *proxy {
	p := &proxy{g: g, m: m}
	p.Interceptor = app.NewInterceptor(m, p)
	return p
}

// swap rebinds the proxy; the runner must be parked (see type doc).
func (p *proxy) swap(m *sim.Machine) {
	p.g.mu.Lock()
	p.m = m
	p.Machine = m
	p.g.mu.Unlock()
}

// machine returns the current machine for control-plane reads; the
// runner must be parked or finished.
func (p *proxy) machine() *sim.Machine {
	p.g.mu.Lock()
	defer p.g.mu.Unlock()
	return p.m
}

// Load is a counted guest operation.
func (p *proxy) Load(a mem.Addr, size uint) uint64 {
	p.g.tick()
	return p.m.Load(a, size)
}

// Store is a counted guest operation.
func (p *proxy) Store(a mem.Addr, v uint64, size uint) {
	p.g.tick()
	p.m.Store(a, v, size)
}

// Malloc is a counted guest operation.
func (p *proxy) Malloc(n uint64) mem.Addr {
	p.g.tick()
	return p.m.Malloc(n)
}

// Free is a counted guest operation.
func (p *proxy) Free(a mem.Addr) {
	p.g.tick()
	p.m.Free(a)
}

// SetHart forwards to the current machine, so a scheduling group built
// over the proxy keeps bracketing relocator-hart steps correctly after
// a live migration swaps the machine underneath it. The group finds
// the proxy — not the machine, which migration replaces — because As
// stops at the outermost implementor.
func (p *proxy) SetHart(i int) { p.m.SetHart(i) }

// HartCount forwards to the current machine.
func (p *proxy) HartCount() int { return p.m.HartCount() }
