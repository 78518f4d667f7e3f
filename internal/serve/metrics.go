package serve

import (
	"fmt"
	"net/http"

	"memfwd/internal/obs"
	"memfwd/internal/sim"
	"memfwd/internal/telemetry"
)

// registerMetrics builds the registry /metrics serves: read-only views
// over the counters the server, its shards and its store already keep,
// plus one group that walks the session table once per snapshot. Every
// view reads atomics or takes the lock it needs, so snapshots may run
// concurrently with each other and with requests.
func (sv *Server) registerMetrics() *obs.Registry {
	r := obs.NewRegistry()
	r.GaugeFunc("serve.shards", func() float64 { return float64(len(sv.shards)) })
	atomicView(r, "serve.sessions.created", &sv.created)
	atomicView(r, "serve.sessions.closed", &sv.closedCount)
	atomicView(r, "serve.migrations", &sv.migrations)
	atomicView(r, "serve.snapshots", &sv.snapshots)
	r.GaugeFunc("serve.snapshots.held_bytes", func() float64 {
		sv.mu.Lock()
		defer sv.mu.Unlock()
		n := 0
		for _, snap := range sv.snaps {
			n += snap.st.MemoryBytes()
		}
		return float64(n)
	})
	atomicView(r, "serve.restores", &sv.restores)
	atomicView(r, "serve.shed", &sv.shedCount)
	atomicView(r, "serve.durability_lost", &sv.durabilityLost)
	r.GaugeGroup("serve.sessions", sv.sessionMetrics)
	for _, sh := range sv.shards {
		prefix := fmt.Sprintf("serve.shard.%d.", sh.id)
		atomicView(r, prefix+"active", &sh.active)
		atomicView(r, prefix+"created", &sh.created)
		atomicView(r, prefix+"migrated_in", &sh.migratedIn)
		atomicView(r, prefix+"migrated_out", &sh.migratedOut)
		atomicView(r, prefix+"inflight", &sh.inflight)
		atomicView(r, prefix+"shed", &sh.shed)
		atomicView(r, prefix+"strikes", &sh.strikes)
		flagView(r, prefix+"quarantined", sh.quarantined.Load)
	}
	r.GaugeFunc("serve.shards.quarantined", func() float64 {
		n := 0
		for _, sh := range sv.shards {
			if sh.quarantined.Load() {
				n++
			}
		}
		return float64(n)
	})
	if st := sv.cfg.Store; st != nil {
		atomicView(r, "serve.store.appends", &st.appends)
		atomicView(r, "serve.store.syncs", &st.syncs)
		atomicView(r, "serve.store.retries", &st.retries)
		atomicView(r, "serve.store.failures", &st.failures)
		atomicView(r, "serve.store.checkpoints", &st.checkpoints)
		flagView(r, "serve.store.dead", st.Dead)
	}
	r.GaugeGroup("serve.recovered", func(emit func(string, float64)) {
		sv.mu.Lock()
		rec := sv.recovered
		sv.mu.Unlock()
		emit("serve.recovered.sessions", float64(rec.Sessions))
		emit("serve.recovered.snapshots", float64(rec.Snapshots))
		emit("serve.recovered.replayed_ops", float64(rec.ReplayedOps))
		emit("serve.recovered.replayed_grants", float64(rec.ReplayedGrants))
		emit("serve.recovered.tail_rollbacks", float64(rec.TailRollbacks))
		emit("serve.recovered.scavenges", float64(rec.Scavenges))
		emit("serve.recovered.damaged", float64(rec.Damaged))
	})
	return r
}

// atomicView registers a view of one atomic counter.
func atomicView[T int64 | uint64](r *obs.Registry, name string, c interface{ Load() T }) {
	r.GaugeFunc(name, func() float64 { return float64(c.Load()) })
}

// flagView registers a view of a boolean as 0 or 1.
func flagView(r *obs.Registry, name string, f func() bool) {
	r.GaugeFunc(name, func() float64 {
		if f() {
			return 1
		}
		return 0
	})
}

// tierGauges names the serve.tier.* aggregates in tierView.sums order.
var tierGauges = [...]string{"wakes", "promotions", "demotions", "placed", "spills",
	"repaired", "remorse", "near.bytesLive", "far.bytesLive"}

// sums lists the view's values that /metrics aggregates over sessions.
func (v *tierView) sums() [len(tierGauges)]uint64 {
	return [...]uint64{v.Stats.Wakes, v.Stats.Promotions, v.Stats.Demotions, v.Stats.Placed, v.Stats.Spills,
		v.Stats.Repaired, v.Stats.Remorse, v.NearBytes, v.FarBytes}
}

// sessionMetrics is the one walk of the session table behind a
// snapshot: the op and event totals (live sessions plus the retired
// ones), the ratios they feed, and the tiering aggregates over live
// tiered sessions.
func (sv *Server) sessionMetrics(emit func(string, float64)) {
	sv.mu.Lock()
	sessions := make([]*Session, 0, len(sv.sessions))
	for _, s := range sv.sessions {
		sessions = append(sessions, s)
	}
	sv.mu.Unlock()
	var ops, events, drops uint64
	var tierSessions int
	var tierSums [len(tierGauges)]uint64
	for _, s := range sessions {
		e, d, _ := s.hub.Stats()
		events += e
		drops += d
		// The tier gauges need the machine quiesced, so they are read
		// under the session mutex, like any other control-plane read;
		// closed sessions have no tier state.
		ops += s.ops()
		s.mu.Lock()
		if s.stk != nil && s.stk.Daemon != nil && !s.closed {
			tierSessions++
			s.withMachine(func(*sim.Machine) error { //nolint:errcheck // fn returns nil
				for i, v := range s.tierState().sums() {
					tierSums[i] += v
				}
				return nil
			})
		}
		s.mu.Unlock()
	}
	ops += sv.opsRetired.Load()
	events += sv.eventsRetired.Load()
	drops += sv.dropsRetired.Load()
	active := len(sessions)

	emit("serve.sessions.active", float64(active))
	emit("serve.ops", float64(ops))
	emit("serve.events", float64(events))
	emit("serve.events.dropped", float64(drops))
	// Computed ratios: a zero denominator makes NaN here, which /metrics
	// serves as 0.
	emit("serve.ops_per_session", float64(ops)/float64(sv.created.Load()))
	emit("serve.sessions_per_shard", float64(active)/float64(len(sv.shards)))
	emit("serve.events.drop_fraction", float64(drops)/float64(events))
	// Tiering, aggregated over live tiered sessions (all 0 when none).
	emit("serve.tier.sessions", float64(tierSessions))
	for i, name := range tierGauges {
		emit("serve.tier."+name, float64(tierSums[i]))
	}
}

// MetricsSnapshot evaluates the registry as the /metrics value map
// (tests and the benchmark read it directly).
func (sv *Server) MetricsSnapshot() map[string]float64 {
	return telemetry.MetricValues(sv.reg.Snapshot())
}

func (sv *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	telemetry.WriteMetrics(w, sv.MetricsSnapshot())
}
