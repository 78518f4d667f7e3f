package app

import "memfwd/internal/mem"

// Interceptor is the base of every machine wrapper — an agent that
// hooks guest operations on their way to an inner machine (the chaos
// adversary, the tiering daemon, the relocator-hart scheduler, the
// session server's step gate). A wrapper embeds an Interceptor built by
// NewInterceptor and defines only the methods it changes:
//
//   - every app.Machine method the wrapper does not define reaches the
//     inner machine through the embedded Machine, with no code;
//   - the ten sized accessors (LoadWord … Store8) funnel through the
//     wrapper's own Load and Store, so hooking those two hooks every
//     guest data reference once;
//   - Unwrap exposes the inner machine, so As finds optional
//     capabilities (span recording, relocation barriers, per-hart
//     timing) anywhere down the chain without the wrapper forwarding
//     them.
//
// A wrapper's own calls on the inner machine go through the embedded
// field (w.Machine.Load), which bypasses the wrapper's hooks.
type Interceptor struct {
	// Machine is the inner machine. Hosts that rebind a wrapper to a
	// different machine assign it while the guest is quiesced.
	Machine

	outer Machine // the wrapper: receives every sized access
}

// NewInterceptor returns the base for a wrapper outer around inner.
// outer is normally the wrapper under construction, whose Interceptor
// field is then set to the result.
func NewInterceptor(inner, outer Machine) Interceptor {
	return Interceptor{Machine: inner, outer: outer}
}

// Unwrap returns the inner machine.
func (ic *Interceptor) Unwrap() Machine { return ic.Machine }

// The sized accessors, each routed through the wrapper's Load or Store.

func (ic *Interceptor) LoadWord(a mem.Addr) uint64     { return ic.outer.Load(a, 8) }
func (ic *Interceptor) StoreWord(a mem.Addr, v uint64) { ic.outer.Store(a, v, 8) }
func (ic *Interceptor) LoadPtr(a mem.Addr) mem.Addr    { return mem.Addr(ic.outer.Load(a, 8)) }
func (ic *Interceptor) StorePtr(a, p mem.Addr)         { ic.outer.Store(a, uint64(p), 8) }
func (ic *Interceptor) Load32(a mem.Addr) uint32       { return uint32(ic.outer.Load(a, 4)) }
func (ic *Interceptor) Store32(a mem.Addr, v uint32)   { ic.outer.Store(a, uint64(v), 4) }
func (ic *Interceptor) Load16(a mem.Addr) uint16       { return uint16(ic.outer.Load(a, 2)) }
func (ic *Interceptor) Store16(a mem.Addr, v uint16)   { ic.outer.Store(a, uint64(v), 2) }
func (ic *Interceptor) Load8(a mem.Addr) uint8         { return uint8(ic.outer.Load(a, 1)) }
func (ic *Interceptor) Store8(a mem.Addr, v uint8)     { ic.outer.Store(a, uint64(v), 1) }

// As walks m's wrapper chain from the outermost machine inward and
// returns the first machine that implements T — the way a caller finds
// an optional capability (a span table, a relocation barrier, per-hart
// timing) without every wrapper forwarding it. The walk stops at a
// machine with no Unwrap: such a machine is opaque, and what lies
// beneath it is deliberately out of reach.
func As[T any](m Machine) (T, bool) {
	for m != nil {
		if t, ok := m.(T); ok {
			return t, true
		}
		u, ok := m.(interface{ Unwrap() Machine })
		if !ok {
			break
		}
		m = u.Unwrap()
	}
	var zero T
	return zero, false
}
