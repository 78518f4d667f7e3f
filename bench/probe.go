package main

import (
	"fmt"
	"reflect"
	"time"

	"memfwd"
	"memfwd/internal/apps/app"
	"memfwd/internal/core"
	"memfwd/internal/fault"
	"memfwd/internal/mem"
	"memfwd/internal/obs"
	"memfwd/internal/sim"
)

// Guest operation kinds the probe times.
const (
	kLoad = iota
	kStore
	kInst
	kMalloc
	kFree
	nKinds
)

var kindNames = [nKinds]string{"load", "store", "inst", "malloc", "free"}

// probe is the guest-op boundary probe: an app.Machine interceptor that
// sits outermost on a plain machine and times every guest data
// operation and Inst call. Everything else, including the optional
// capabilities the relocation machinery looks for (Now,
// RelocationSpans, RelocationBarrier, SetHart, HartCount), passes
// through untimed.
type probe struct {
	m *sim.Machine
	n [nKinds]int64
	d [nKinds]time.Duration
}

var _ app.Machine = (*probe)(nil)

func (p *probe) since(k int, t time.Time) {
	p.d[k] += time.Since(t)
	p.n[k]++
}

func (p *probe) Inst(n int) {
	t := time.Now()
	p.m.Inst(n)
	p.since(kInst, t)
}

func (p *probe) Load(a mem.Addr, size uint) uint64 {
	t := time.Now()
	v := p.m.Load(a, size)
	p.since(kLoad, t)
	return v
}

func (p *probe) Store(a mem.Addr, v uint64, size uint) {
	t := time.Now()
	p.m.Store(a, v, size)
	p.since(kStore, t)
}

func (p *probe) LoadWord(a mem.Addr) uint64 {
	t := time.Now()
	v := p.m.LoadWord(a)
	p.since(kLoad, t)
	return v
}

func (p *probe) StoreWord(a mem.Addr, v uint64) {
	t := time.Now()
	p.m.StoreWord(a, v)
	p.since(kStore, t)
}

func (p *probe) LoadPtr(a mem.Addr) mem.Addr {
	t := time.Now()
	v := p.m.LoadPtr(a)
	p.since(kLoad, t)
	return v
}

func (p *probe) StorePtr(a, v mem.Addr) {
	t := time.Now()
	p.m.StorePtr(a, v)
	p.since(kStore, t)
}

func (p *probe) Load32(a mem.Addr) uint32 {
	t := time.Now()
	v := p.m.Load32(a)
	p.since(kLoad, t)
	return v
}

func (p *probe) Store32(a mem.Addr, v uint32) {
	t := time.Now()
	p.m.Store32(a, v)
	p.since(kStore, t)
}

func (p *probe) Load16(a mem.Addr) uint16 {
	t := time.Now()
	v := p.m.Load16(a)
	p.since(kLoad, t)
	return v
}

func (p *probe) Store16(a mem.Addr, v uint16) {
	t := time.Now()
	p.m.Store16(a, v)
	p.since(kStore, t)
}

func (p *probe) Load8(a mem.Addr) uint8 {
	t := time.Now()
	v := p.m.Load8(a)
	p.since(kLoad, t)
	return v
}

func (p *probe) Store8(a mem.Addr, v uint8) {
	t := time.Now()
	p.m.Store8(a, v)
	p.since(kStore, t)
}

func (p *probe) Malloc(n uint64) mem.Addr {
	t := time.Now()
	a := p.m.Malloc(n)
	p.since(kMalloc, t)
	return a
}

func (p *probe) Free(a mem.Addr) {
	t := time.Now()
	p.m.Free(a)
	p.since(kFree, t)
}

func (p *probe) Prefetch(a mem.Addr, lines int)                 { p.m.Prefetch(a, lines) }
func (p *probe) ReadFBit(a mem.Addr) bool                       { return p.m.ReadFBit(a) }
func (p *probe) UnforwardedRead(a mem.Addr) (uint64, bool)      { return p.m.UnforwardedRead(a) }
func (p *probe) UnforwardedWrite(a mem.Addr, v uint64, fb bool) { p.m.UnforwardedWrite(a, v, fb) }
func (p *probe) FinalAddr(a mem.Addr) mem.Addr                  { return p.m.FinalAddr(a) }
func (p *probe) PtrEqual(a, b mem.Addr) bool                    { return p.m.PtrEqual(a, b) }
func (p *probe) SetTrap(h core.TrapHandler)                     { p.m.SetTrap(h) }
func (p *probe) Allocator() *mem.Allocator                      { return p.m.Allocator() }
func (p *probe) Memory() *mem.Memory                            { return p.m.Memory() }
func (p *probe) Forwarder() *core.Forwarder                     { return p.m.Forwarder() }
func (p *probe) LineSize() int                                  { return p.m.LineSize() }
func (p *probe) FaultInjector() *fault.Injector                 { return p.m.FaultInjector() }
func (p *probe) SetFaultInjector(in *fault.Injector)            { p.m.SetFaultInjector(in) }
func (p *probe) Site(name string) int                           { return p.m.Site(name) }
func (p *probe) SetSite(id int)                                 { p.m.SetSite(id) }
func (p *probe) PhaseBegin(name string)                         { p.m.PhaseBegin(name) }
func (p *probe) PhaseEnd(name string)                           { p.m.PhaseEnd(name) }
func (p *probe) TraceRelocate(src, tgt mem.Addr, nWords int)    { p.m.TraceRelocate(src, tgt, nWords) }
func (p *probe) Now() int64                                     { return p.m.Now() }
func (p *probe) RelocationSpans() *obs.SpanTable                { return p.m.RelocationSpans() }
func (p *probe) SetHart(i int)                                  { p.m.SetHart(i) }
func (p *probe) HartCount() int                                 { return p.m.HartCount() }

// RelocationBarrier forwards opt.TryRelocate's pre-flight hook when the
// machine has one.
func (p *probe) RelocationBarrier(src mem.Addr) {
	if b, ok := any(p.m).(interface{ RelocationBarrier(mem.Addr) }); ok {
		b.RelocationBarrier(src)
	}
}

// probeLine is the cache line size the probe's cells run at.
const probeLine = 64

// guestProbe runs every probe app under N and L through the probe and
// records the mean host cost of each guest operation kind, and of an
// empty timed call. Each cell's statistics and result must equal an
// untimed RunOne of the same cell: the probe observes, it must not
// perturb.
func guestProbe(o options, sz sizes, r *result) error {
	type cell struct {
		app  memfwd.App
		v    memfwd.Variant
		p    *probe
		same bool // stats and result equal the untimed RunOne's
	}
	var cells []*cell
	for _, name := range sz.ProbeApps {
		a, ok := memfwd.AppByName(name)
		if !ok {
			return fmt.Errorf("unknown probe app %q", name)
		}
		for _, v := range []memfwd.Variant{memfwd.VariantN, memfwd.VariantL} {
			cells = append(cells, &cell{app: a, v: v})
		}
	}
	seed := appSeed(o.seed)
	err := parallel(len(cells), func(i int) error {
		c := cells[i]
		c.p = &probe{m: sim.New(sim.Config{LineSize: probeLine})}
		res := c.app.Run(c.p, app.Config{Opt: c.v == memfwd.VariantL, Seed: seed})
		st := c.p.m.Finalize()
		ref := memfwd.RunOne(c.app, probeLine, c.v, 0, memfwd.Options{Seed: seed})
		c.same = reflect.DeepEqual(*st, *ref.Stats) && res == ref.Result
		return nil
	})
	if err != nil {
		return err
	}
	var n [nKinds]int64
	var d [nKinds]time.Duration
	for _, c := range cells {
		r.check(c.same, "probe %s/%s: stats or result differ from the untimed RunOne", c.app.Name, c.v)
		for k := range n {
			n[k] += c.p.n[k]
			d[k] += c.p.d[k]
		}
	}
	for k, name := range kindNames {
		r.set("guest."+name+"_ns", float64(d[k])/float64(max(n[k], 1)), "ns")
	}
	r.set("guest.timer_ns", timerCost(), "ns")
	return nil
}

// timerCost is the mean cost of an empty timed call: the clock reads
// every probe measurement includes.
func timerCost() float64 {
	const n = 1 << 20
	var d time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		d += time.Since(t)
	}
	return float64(d) / n
}
