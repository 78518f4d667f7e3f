// Package telemetry is the live HTTP plane over the obs layer — the
// first brick of memfwd-serve. A Server exposes read-only JSON views of
// published snapshots plus an NDJSON live event stream:
//
//	/metrics        registry snapshot (plus the hub's own counters)
//	/samples        sampler time series
//	/heatmap?top=K  per-object heat map rankings
//	/spans          relocation-span digest
//	/events         live trace events, one JSON object per line
//
// Non-interference is structural. The simulation goroutine owns every
// mutable obs structure; the server never reaches into them. Instead
// the simulation *publishes* immutable snapshots (cheap copies taken at
// sampler cadence) which handlers read under an RWMutex, and live
// events arrive through an obs.Broadcaster whose bounded non-blocking
// subscriber queues drop batches for slow clients rather than ever
// stalling the producer. A wedged curl therefore costs the run one
// failed channel send per trace flush, nothing more.
package telemetry

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"memfwd/internal/obs"
	"memfwd/internal/report"
)

// Server is one telemetry endpoint set bound to a listener.
type Server struct {
	hub *obs.Broadcaster
	srv *http.Server
	ln  net.Listener

	mu      sync.RWMutex
	metrics []obs.MetricValue
	samples obs.Series
	heat    obs.HeatSnapshot
	spans   obs.SpanSnapshot
}

// Start listens on addr (host:port; ":0" picks a free port) and serves
// until Close. The returned server's Hub is ready for subscribers and
// for wiring as a tracer sink.
func Start(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{hub: obs.NewBroadcaster()}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/samples", s.handleSamples)
	mux.HandleFunc("/heatmap", s.handleHeatmap)
	mux.HandleFunc("/spans", s.handleSpans)
	mux.HandleFunc("/events", s.handleEvents)
	s.ln = ln
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr returns the bound listen address (resolved port for ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Hub returns the live-event broadcaster. Wire it into a tracer with
// obs.NewTracer(obs.NoClose(s.Hub()), ...) — NoClose keeps a per-cell
// tracer's Close from tearing the shared hub down.
func (s *Server) Hub() *obs.Broadcaster { return s.hub }

// closeTimeout bounds the graceful drain in Close. Short on purpose:
// a cooperative /events client exits within one batch delivery once the
// hub closes, so the deadline only matters for wedged connections.
const closeTimeout = 2 * time.Second

// Close tears the plane down gracefully: it closes the hub first —
// every /events subscriber drains its queued batches and gets a final
// flush before its handler returns (the Broadcaster's close-with-
// buffered-batches drain guarantee) — then lets http.Server.Shutdown
// wait, briefly, for in-flight handlers to finish. Only connections
// still open after the deadline (a client that stopped reading
// mid-stream) are cut hard via http.Server.Close.
//
// This replaces the abrupt hub.Close + srv.Close teardown that could
// cut a mid-stream client before its final batch was written.
func (s *Server) Close() error {
	s.hub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}

// PublishMetrics replaces the served registry snapshot. Call it from
// the goroutine that owns the registry; the slice must not be mutated
// afterwards (Registry.Snapshot allocates fresh, so passing its result
// directly is safe).
func (s *Server) PublishMetrics(snap []obs.MetricValue) {
	s.mu.Lock()
	s.metrics = snap
	s.mu.Unlock()
}

// PublishSamples replaces the served time series. samples must not be
// mutated afterwards; pass a copy when the live series keeps growing.
func (s *Server) PublishSamples(every uint64, samples []obs.Sample) {
	s.mu.Lock()
	s.samples = obs.Series{Every: every, Samples: samples}
	s.mu.Unlock()
}

// PublishHeat replaces the served heat-map snapshot.
func (s *Server) PublishHeat(h obs.HeatSnapshot) {
	s.mu.Lock()
	s.heat = h
	s.mu.Unlock()
}

// PublishSpans replaces the served relocation-span snapshot.
func (s *Server) PublishSpans(sp obs.SpanSnapshot) {
	s.mu.Lock()
	s.spans = sp
	s.mu.Unlock()
}

// writeJSON sends v through the shared envelope encoder.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := report.WriteJSON(w, v); err != nil {
		// Headers are gone; nothing useful left to do but drop the conn.
		return
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, map[string]string{
		"metrics": "/metrics",
		"samples": "/samples",
		"heatmap": "/heatmap?top=K",
		"spans":   "/spans",
		"events":  "/events (NDJSON stream)",
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	snap := s.metrics
	s.mu.RUnlock()
	vals := make(map[string]float64, len(snap)+3)
	for _, mv := range snap {
		vals[mv.Name] = obs.Finite(mv.Value)
	}
	// The hub's own health counters are always live, even between
	// publishes.
	events, dropped, subs := s.hub.Stats()
	vals["telemetry.events"] = float64(events)
	vals["telemetry.events.dropped"] = float64(dropped)
	vals["telemetry.subscribers"] = float64(subs)
	writeJSON(w, map[string]any{"metrics": vals})
}

func (s *Server) handleSamples(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	series := s.samples
	s.mu.RUnlock()
	writeJSON(w, map[string]any{
		"every":   series.Every,
		"samples": series.Samples,
	})
}

func (s *Server) handleHeatmap(w http.ResponseWriter, r *http.Request) {
	top := 10
	if q := r.URL.Query().Get("top"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			http.Error(w, "top must be a positive integer", http.StatusBadRequest)
			return
		}
		top = n
	}
	s.mu.RLock()
	h := s.heat
	s.mu.RUnlock()
	if len(h.Hottest) > top {
		h.Hottest = h.Hottest[:top]
	}
	if len(h.Chains) > top {
		h.Chains = h.Chains[:top]
	}
	writeJSON(w, h)
}

func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	sp := s.spans
	s.mu.RUnlock()
	writeJSON(w, sp)
}

// handleEvents streams live trace events as NDJSON until the client
// disconnects or the server closes. The subscriber queue is bounded;
// batches that would block are dropped (and counted) rather than ever
// back-pressuring the simulation.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sub := s.hub.Subscribe(64)
	defer sub.Unsubscribe()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	sink := obs.NewNDJSONSink(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case batch, ok := <-sub.C:
			if !ok {
				return
			}
			if sink.WriteEvents(batch) != nil || sink.Close() != nil {
				return // client went away; Close here only flushes
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}
