package telemetry

import (
	"sync"
	"time"
)

// Plane couples a telemetry Server with the boot/linger/close lifecycle
// that cmd/memfwd-sim's two run paths and internal/figures share. The
// contract the callers rely on:
//
//   - Boot either returns a running Plane or an error — a failed server
//     start can never leave a linger behind, because the linger lives
//     inside Shutdown and there is no Plane to shut down.
//   - Shutdown is idempotent: the linger happens at most once and the
//     server closes at most once, no matter how many times Shutdown
//     runs (e.g. a deferred call after an explicit one). This is the
//     fix for the double-`defer linger(...)` registration hazard in
//     cmd/memfwd-sim (ISSUE 7 satellite 3).
//   - Any publisher goroutine started with StartPublisher is stopped —
//     after one final publish, so the lingering server serves end
//     state — before the linger begins.
type Plane struct {
	srv    *Server
	linger time.Duration
	logf   func(format string, args ...any)

	stopPub chan struct{}
	pubWG   sync.WaitGroup

	shutdown sync.Once
	err      error
}

// Boot starts a telemetry server on addr and reports the bound address
// through logf (nil discards logging). linger is how long Shutdown
// keeps the server reachable after the work completes — 0 for
// always-on servers and test planes.
func Boot(addr string, linger time.Duration, logf func(string, ...any)) (*Plane, error) {
	srv, err := Start(addr)
	if err != nil {
		return nil, err
	}
	p := &Plane{srv: srv, linger: linger, logf: logf, stopPub: make(chan struct{})}
	p.logDo("telemetry plane on http://%s", srv.Addr())
	return p, nil
}

func (p *Plane) logDo(format string, args ...any) {
	if p.logf != nil {
		p.logf(format, args...)
	}
}

// Server returns the underlying telemetry server (for Publish* calls).
func (p *Plane) Server() *Server { return p.srv }

// Addr returns the bound listen address.
func (p *Plane) Addr() string { return p.srv.Addr() }

// StartPublisher runs publish immediately and then every interval on a
// dedicated goroutine until Shutdown, which stops the ticker and runs
// one final publish so the served snapshots reflect end state.
// Everything publish touches must be safe for use off the simulation
// goroutine (figures publishes a registry of thread-safe JobProgress
// views; a machine's registry is not thread-safe and is published by
// Server.Watch at sampler cadence instead).
func (p *Plane) StartPublisher(interval time.Duration, publish func()) {
	p.pubWG.Add(1)
	go func() {
		defer p.pubWG.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			publish()
			select {
			case <-p.stopPub:
				publish()
				return
			case <-tick.C:
			}
		}
	}()
}

// Shutdown stops publishers, lingers once if configured, and closes
// the server gracefully. Safe to call any number of times from any
// goroutine; every call returns the first call's result.
func (p *Plane) Shutdown() error {
	p.shutdown.Do(func() {
		close(p.stopPub)
		p.pubWG.Wait()
		if p.linger > 0 {
			p.logDo("telemetry lingering %s on http://%s", p.linger, p.Addr())
			time.Sleep(p.linger)
		}
		p.err = p.srv.Close()
	})
	return p.err
}
