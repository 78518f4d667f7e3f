package main

import (
	"fmt"
	"time"

	"memfwd"
	"memfwd/internal/sim"
)

// appWorkload is app-sessions: the apps run as stepped app sessions
// (optimized layout, chaos adversary, two memory tiers with the online
// migrator, a racing relocator hart), each client stepping one session
// at a time to completion.
type appWorkload struct {
	o  options
	sz sizes

	refs map[string]uint64 // app -> checksum of the plain single-hart RunOne
	sys  *server
}

func (w *appWorkload) prepare(*result) error {
	sums := make([]uint64, len(w.sz.Apps))
	err := parallel(len(w.sz.Apps), func(i int) error {
		a, ok := memfwd.AppByName(w.sz.Apps[i])
		if !ok {
			return fmt.Errorf("unknown app %q", w.sz.Apps[i])
		}
		sums[i] = memfwd.RunOne(a, sim.DefaultConfig().LineSize, memfwd.VariantL, 0, memfwd.Options{Seed: w.o.seed}).Result.Checksum
		return nil
	})
	w.refs = map[string]uint64{}
	for i, a := range w.sz.Apps {
		w.refs[a] = sums[i]
	}
	if _, ok := w.refs[w.sz.WarmApp]; !ok && err == nil {
		err = fmt.Errorf("warm app %q is not one of the apps", w.sz.WarmApp)
	}
	return err
}

// boot brings a memory-only server up and steps one session of the warm
// app for its first WarmQuanta quanta before deleting it.
func (w *appWorkload) boot() error {
	sys, err := bootServer(w.sz.Shards, w.sz.Clients)
	if err != nil {
		return err
	}
	w.sys = sys
	cl := newClient(sys)
	s := &appSess{app: w.sz.WarmApp}
	if s.id, err = cl.create(appSession(s.app, appSeed(w.o.seed), w.o.seed, w.sz, 0)); err != nil {
		return err
	}
	for q := 0; q < w.sz.WarmQuanta && !s.done; q++ {
		rep, err := cl.step(s.id, int64(w.sz.Quantum))
		if err != nil {
			return err
		}
		w.finish(cl, s, rep)
	}
	if len(cl.failures) > 0 {
		return fmt.Errorf("warm-up session: %s", cl.failures[0])
	}
	return cl.remove(s.id)
}

// finish records a session as done when a step reply says so, and
// checks its checksum against the plain RunOne's.
func (w *appWorkload) finish(cl *client, s *appSess, rep stepReply) {
	if !rep.Done {
		return
	}
	s.done = true
	cl.ops += float64(rep.Used)
	if cl.check(rep.Result != nil, "session %s (%s) done without a result", s.id, s.app) {
		cl.check(rep.Result.Err == "" && rep.Result.Checksum == w.refs[s.app],
			"session %s (%s): checksum %#x err %q, plain RunOne %#x", s.id, s.app, rep.Result.Checksum, rep.Result.Err, w.refs[s.app])
	}
}

func (w *appWorkload) teardown() {
	w.sys.close()
	w.sys = nil
}

type appSess struct {
	id, app string
	done    bool
}

func (w *appWorkload) measure(r *result, traced bool) (*phase, error) {
	sys := w.sys
	defer w.teardown()
	p := newPhase()
	cs := make([]*client, w.sz.Clients)
	stats := make([][]sessionStats, len(cs))
	for c := range cs {
		cs[c] = newClient(sys)
	}
	start := time.Now()
	err := concurrently(len(cs), func(c int) error {
		cl := cs[c]
		// Session k runs the apps in turn, each under its own chaos seed;
		// the clients run the same app at the same time, so neither
		// waits for the other to finish a longer one.
		n, apps := len(cs), len(w.sz.Apps)
		for k := c; k < n*w.sz.Sessions; k += n {
			s := &appSess{app: w.sz.Apps[k/n%apps]}
			chaos := w.o.seed + int64(n*(k/(n*apps))+k%n)
			var err error
			if s.id, err = cl.create(appSession(s.app, appSeed(w.o.seed), chaos, w.sz, c%w.sz.Shards)); err != nil {
				return err
			}
			for !s.done {
				rep, err := cl.step(s.id, int64(w.sz.Quantum))
				if err != nil {
					return err
				}
				w.finish(cl, s, rep)
			}
			st, err := cl.stats(s.id)
			if err != nil {
				return err
			}
			stats[c] = append(stats[c], st)
			if err := cl.remove(s.id); err != nil {
				return err
			}
		}
		return nil
	})
	p.wall = time.Since(start)
	for _, cl := range cs {
		cl.mergeInto(r)
	}
	if err != nil {
		return nil, err
	}
	serverCounts(p, sys.sv)
	for _, sts := range stats {
		for _, st := range sts {
			p.addSession(st)
		}
	}
	clientTotals(p, cs)
	p.reqs = mergeLatencies(cs, "step")
	p.timings = clientTimings(cs)
	return p, nil
}
