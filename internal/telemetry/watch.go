package telemetry

import (
	"memfwd/internal/obs"
	"memfwd/internal/sim"
)

// DefaultSampleEvery is the publication cadence, in graduated
// instructions, of a machine watched without a sample series of its
// own.
const DefaultSampleEvery = 50_000

// Watch publishes machine m on the plane. It attaches a tracer feeding
// the hub and any sinks given (trace files), and a heat map and a span
// table unless m has them. Each time series gains a point, the heat
// map, spans, series and reg (when non-nil) are published from m's
// goroutine, so reg's views need not be safe for concurrent use; a nil
// series becomes a private one sampling every DefaultSampleEvery
// instructions. Call publish after the run to serve end state, and
// Close the tracer to flush its tail: the hub stays open. Machines
// watched concurrently overwrite each other's snapshots.
func (s *Server) Watch(m *sim.Machine, series *obs.Series, reg *obs.Registry, sinks ...obs.Sink) (tr *obs.Tracer, publish func()) {
	tr = obs.NewTracer(obs.MultiSink(append([]obs.Sink{obs.NoClose(s.hub)}, sinks...)...), 256)
	m.SetTracer(tr)
	heat := m.HeatMap()
	if heat == nil {
		heat = obs.NewHeatMap(0, 0)
		m.SetHeatMap(heat)
	}
	spans := m.RelocationSpans()
	if spans == nil {
		spans = obs.NewSpanTable(0)
		m.SetSpans(spans)
	}
	if series == nil {
		series = &obs.Series{}
		m.SetSampleEvery(DefaultSampleEvery, series)
	}
	publish = func() {
		if reg != nil {
			s.PublishMetrics(reg.Snapshot())
		}
		s.PublishHeat(heat.Snapshot(32))
		s.PublishSpans(spans.Snapshot(64))
		samples := make([]obs.Sample, len(series.Samples))
		copy(samples, series.Samples)
		s.PublishSamples(series.Every, samples)
	}
	series.OnAdd = func(obs.Sample) { publish() }
	return tr, publish
}
