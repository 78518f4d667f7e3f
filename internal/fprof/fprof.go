// Package fprof is the forwarding profiler the paper sketches in
// Section 3.2: a tool built on user-level forwarding traps that records
// which static references experience forwarding "for the sake of
// eliminating that forwarding in future runs of the program".
//
// Attach a Profiler to a machine before the run; afterwards Report
// renders the per-site forwarding profile (counts, hop distribution,
// distinct stray addresses), which is exactly what a programmer needs
// to find the pointer-update sites they missed.
package fprof

import (
	"fmt"
	"sort"

	"memfwd/internal/apps/app"
	"memfwd/internal/core"
	"memfwd/internal/mem"
	"memfwd/internal/obs"
	"memfwd/internal/report"
	"memfwd/internal/sim"
)

// SiteProfile accumulates forwarding behaviour for one static site.
type SiteProfile struct {
	Site    int
	Loads   uint64
	Stores  uint64
	Hops    uint64 // total hops across all trapped references
	MaxHops int
	// Initials tracks distinct stale addresses seen (bounded).
	Initials map[mem.Addr]uint64
}

// Profiler collects a forwarding profile through the machine's
// user-level trap.
type Profiler struct {
	m     *sim.Machine
	sites map[int]*SiteProfile
	attr  map[AttrKey]*AttrProfile // nil until EnableAttribution

	// MaxInitials bounds per-site address tracking (0 = 256).
	MaxInitials int
	// MaxAttrs bounds the site × object table (0 = DefaultMaxAttrs).
	MaxAttrs int
	// AttrOverflow counts traps dropped from attribution at the bound.
	AttrOverflow uint64
}

// Attach installs the profiler on m (replacing any trap handler).
func Attach(m *sim.Machine) *Profiler { return AttachThrough(m, m) }

// AttachThrough profiles m but installs the handler through guest, the
// outermost machine of a wrapper chain over m (replacing any trap
// handler). A wrapper that masks the guest's handler while it works,
// like the tiering daemon, restores only a handler installed through
// it.
func AttachThrough(m *sim.Machine, guest app.Machine) *Profiler {
	p := &Profiler{m: m, sites: make(map[int]*SiteProfile), MaxInitials: 256}
	guest.SetTrap(p.record)
	return p
}

func (p *Profiler) record(ev core.Event) {
	sp := p.sites[ev.Site]
	if sp == nil {
		sp = &SiteProfile{Site: ev.Site, Initials: make(map[mem.Addr]uint64)}
		p.sites[ev.Site] = sp
	}
	if ev.Kind == core.Load {
		sp.Loads++
	} else {
		sp.Stores++
	}
	sp.Hops += uint64(ev.Hops)
	if ev.Hops > sp.MaxHops {
		sp.MaxHops = ev.Hops
	}
	limit := p.MaxInitials
	if limit == 0 {
		limit = 256
	}
	if len(sp.Initials) < limit || sp.Initials[ev.Initial] > 0 {
		sp.Initials[ev.Initial]++
	}
	if p.attr != nil {
		p.recordAttr(ev)
	}
}

// Sites returns the collected profiles, hottest first.
func (p *Profiler) Sites() []*SiteProfile {
	out := make([]*SiteProfile, 0, len(p.sites))
	for _, sp := range p.sites {
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Loads+out[i].Stores > out[j].Loads+out[j].Stores
	})
	return out
}

// RegisterMetrics exposes the profile totals as registry views.
func (p *Profiler) RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("fprof.traps", func() float64 { return float64(p.Total()) })
	r.GaugeFunc("fprof.sites", func() float64 { return float64(len(p.sites)) })
	r.GaugeFunc("fprof.hops.max", func() float64 {
		max := 0
		for _, sp := range p.sites {
			if sp.MaxHops > max {
				max = sp.MaxHops
			}
		}
		return float64(max)
	})
	r.GaugeFunc("fprof.attr.cells", func() float64 { return float64(len(p.attr)) })
	r.GaugeFunc("fprof.attr.overflow", func() float64 { return float64(p.AttrOverflow) })
}

// Total returns the total number of trapped references.
func (p *Profiler) Total() uint64 {
	var n uint64
	for _, sp := range p.sites {
		n += sp.Loads + sp.Stores
	}
	return n
}

// Report renders the profile as a table.
func (p *Profiler) Report() *report.Table {
	t := report.New("Forwarding profile (Section 3.2 profiling tool)",
		"site", "loads", "stores", "avg hops", "max hops", "stray ptrs")
	for _, sp := range p.Sites() {
		refs := sp.Loads + sp.Stores
		avg := 0.0
		if refs > 0 {
			avg = float64(sp.Hops) / float64(refs)
		}
		t.Add(p.m.SiteName(sp.Site),
			fmt.Sprint(sp.Loads), fmt.Sprint(sp.Stores),
			fmt.Sprintf("%.2f", avg), fmt.Sprint(sp.MaxHops),
			fmt.Sprint(len(sp.Initials)))
	}
	return t
}
