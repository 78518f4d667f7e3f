package serve

import (
	"memfwd/internal/apps/app"
	"memfwd/internal/mem"
	"memfwd/internal/sim"
)

// proxy is the machine an app session's runner executes against. It
// passes every app.Machine operation to the session's *sim.Machine and
// charges the four guest-visible heap operations (loads, stores,
// mallocs, frees) against the session's gate — the same operations
// every agent clock counts, so one /step unit means one guest
// operation in every accounting. Operations that do not tick (the
// relocation primitives TryRelocate is built from — UnforwardedRead/
// Write, Inst, Forwarder) run only between ticks on the runner
// goroutine, so a runner parked by gate.pause never leaves a relocation
// half done. Machine state the guest installs (the trap handler, a
// fault injector) lives on the machine and travels with snapshots.
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
