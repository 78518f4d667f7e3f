package memfwd

import (
	"io"
	"time"

	"memfwd/internal/core"
	"memfwd/internal/exp"
	"memfwd/internal/fprof"
	"memfwd/internal/mp"
	"memfwd/internal/obs"
	"memfwd/internal/ooc"
	"memfwd/internal/opt"
	"memfwd/internal/telemetry"
)

// Re-exported forwarding-mechanism types (internal/core).
type (
	// TrapEvent describes one forwarded reference, delivered to a
	// user-level trap handler (Section 3.2).
	TrapEvent = core.Event
	// TrapHandler is installed with Machine.SetTrap.
	TrapHandler = core.TrapHandler
	// RefKind distinguishes loads from stores in trap events.
	RefKind = core.Kind
)

// Trap event reference kinds.
const (
	RefLoad  RefKind = core.Load
	RefStore RefKind = core.Store
)

// Re-exported layout-optimization types (internal/opt).
type (
	// Pool hands out relocation targets from contiguous memory.
	Pool = opt.Pool
	// ListDesc describes a linked list's node layout for ListLinearize.
	ListDesc = opt.ListDesc
	// TreeDesc describes a tree's node layout for SubtreeCluster.
	TreeDesc = opt.TreeDesc
)

// NewPool creates a relocation-target pool with chunkBytes arenas.
func NewPool(m *Machine, chunkBytes uint64) *Pool { return opt.NewPool(m, chunkBytes) }

// Relocate moves nWords words from src to tgt, leaving forwarding
// addresses behind (Figure 4a).
func Relocate(m *Machine, src, tgt Addr, nWords int) { opt.Relocate(m, src, tgt, nWords) }

// ListLinearize packs the list whose head pointer is stored at
// headHandle into consecutive pool addresses (Figure 4b). Returns the
// number of nodes relocated.
func ListLinearize(m *Machine, p *Pool, headHandle Addr, d ListDesc) int {
	return opt.ListLinearize(m, p, headHandle, d)
}

// SubtreeCluster packs the tree rooted at the pointer stored in
// rootHandle into clusterBytes-sized balanced clusters (Figure 9).
// Returns the number of nodes relocated.
func SubtreeCluster(m *Machine, p *Pool, rootHandle Addr, d TreeDesc, clusterBytes uint64) int {
	return opt.SubtreeCluster(m, p, rootHandle, d, clusterBytes)
}

// ColorPool allocates relocation targets constrained to one cache
// region (color), for the conflict-avoidance optimization of
// Section 2.2.
type ColorPool = opt.ColorPool

// NewColorPool creates a coloring pool for a cache whose one-way span
// is waySizeBytes, split into colors regions.
func NewColorPool(m *Machine, waySizeBytes uint64, colors int) *ColorPool {
	return opt.NewColorPool(m, waySizeBytes, colors)
}

// ColorRelocate moves the nBytes object at addr into the given color's
// cache region, forwarding-safe. Returns the new address.
func ColorRelocate(m *Machine, p *ColorPool, addr Addr, nBytes uint64, color int) Addr {
	return opt.ColorRelocate(m, p, addr, nBytes, color)
}

// Re-exported observability types (internal/obs): the tracing, metrics,
// and sampling layer. Attach with Machine.SetTracer /
// Machine.SetSampleEvery / Machine.RegisterMetrics.
type (
	// Tracer is the bounded event-trace buffer; nil is a valid no-op.
	Tracer = obs.Tracer
	// TraceEvent is one structured trace record.
	TraceEvent = obs.Event
	// TraceEventKind identifies the type of a TraceEvent.
	TraceEventKind = obs.Kind
	// TraceSink receives event batches from a Tracer.
	TraceSink = obs.Sink
	// MemorySink retains events in memory (test support).
	MemorySink = obs.MemorySink
	// MetricsRegistry is the flat namespace of read-only metric views
	// (gauges, gauge groups, attached histograms) that every /metrics
	// document is rendered from.
	MetricsRegistry = obs.Registry
	// Sample is one point of the sampler time-series.
	Sample = obs.Sample
	// SampleSeries is the ordered sampler time-series.
	SampleSeries = obs.Series
	// HeatMap is the bounded, epoch-decayed per-object access profile;
	// attach with Machine.SetHeatMap.
	HeatMap = obs.HeatMap
	// HeatObject is one object's accumulated heat profile.
	HeatObject = obs.HeatObject
	// HeatSnapshot is an immutable heat-map digest.
	HeatSnapshot = obs.HeatSnapshot
	// SpanTable records relocation spans from TryRelocate; attach with
	// Machine.SetSpans.
	SpanTable = obs.SpanTable
	// RelocationSpan is one structured two-phase-commit record.
	RelocationSpan = obs.RelocationSpan
	// SpanSnapshot is an immutable span-table digest.
	SpanSnapshot = obs.SpanSnapshot
	// EventBroadcaster fans live trace events out to bounded,
	// drop-counting subscribers (the /events hub).
	EventBroadcaster = obs.Broadcaster
	// EventSubscriber is one bounded queue of live event batches.
	EventSubscriber = obs.Subscriber
)

// Trace event kinds.
const (
	TraceAlloc        TraceEventKind = obs.KAlloc
	TraceFree         TraceEventKind = obs.KFree
	TraceRelocate     TraceEventKind = obs.KRelocate
	TraceForwardHop   TraceEventKind = obs.KForwardHop
	TraceTrap         TraceEventKind = obs.KTrap
	TraceCacheMiss    TraceEventKind = obs.KCacheMiss
	TraceDepViolation TraceEventKind = obs.KDepViolation
	TracePhaseBegin   TraceEventKind = obs.KPhaseBegin
	TracePhaseEnd     TraceEventKind = obs.KPhaseEnd
	TraceSpanBegin    TraceEventKind = obs.KSpanBegin
	TraceSpanEnd      TraceEventKind = obs.KSpanEnd
)

// NewTracer builds a tracer flushing to sink every bufEvents events
// (<= 0 takes the default).
func NewTracer(sink TraceSink, bufEvents int) *Tracer { return obs.NewTracer(sink, bufEvents) }

// NewRingTracer builds a sinkless tracer retaining the last n events.
func NewRingTracer(n int) *Tracer { return obs.NewRing(n) }

// NewNDJSONSink writes one JSON object per event per line to w.
func NewNDJSONSink(w io.Writer) TraceSink { return obs.NewNDJSONSink(w) }

// NewPerfettoSink writes a Chrome/Perfetto trace_event JSON array to w;
// open the result in chrome://tracing or ui.perfetto.dev.
func NewPerfettoSink(w io.Writer) TraceSink { return obs.NewPerfettoSink(w) }

// MultiSink fans one tracer out to several sinks.
func MultiSink(sinks ...TraceSink) TraceSink { return obs.MultiSink(sinks...) }

// NewEventBroadcaster returns an empty live-event hub.
func NewEventBroadcaster() *EventBroadcaster { return obs.NewBroadcaster() }

// NewHeatMap builds a per-object heat map bounded to maxObjects entries
// decaying every epochEvery accesses (<= 0 takes the defaults).
func NewHeatMap(maxObjects int, epochEvery uint64) *HeatMap {
	return obs.NewHeatMap(maxObjects, epochEvery)
}

// NewSpanTable builds a relocation-span table retaining the most recent
// capacity spans (<= 0 takes the default).
func NewSpanTable(capacity int) *SpanTable { return obs.NewSpanTable(capacity) }

// TelemetryServer is the live HTTP telemetry plane: /metrics, /samples,
// /heatmap, /spans, and the /events NDJSON stream. Watch publishes one
// machine on it.
type TelemetryServer = telemetry.Server

// StartTelemetry binds the telemetry server to addr (":0" picks a free
// port); wire it to experiments via Options.Telemetry and stop it with
// Close.
func StartTelemetry(addr string) (*TelemetryServer, error) { return telemetry.Start(addr) }

// TelemetryPlane is a TelemetryServer plus the shared boot/linger/close
// lifecycle: Boot logs the bound address, Shutdown lingers at most once
// and closes the server gracefully no matter how many times it runs.
type TelemetryPlane = telemetry.Plane

// BootTelemetry starts a telemetry plane on addr. linger is how long
// Shutdown keeps the server reachable after the run (0 to stop
// immediately); logf receives human-readable lifecycle lines (nil
// discards them).
func BootTelemetry(addr string, linger time.Duration, logf func(string, ...any)) (*TelemetryPlane, error) {
	return telemetry.Boot(addr, linger, logf)
}

// NewMetricsRegistry returns an empty metrics registry; populate it
// with Machine.RegisterMetrics and Profiler.RegisterMetrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// JobProgress observes the parallel experiment engine live: jobs
// queued / running / done and per-cell wall time. Attach one via
// Options.Progress and expose it with RegisterMetrics; the zero value
// is ready to use and safe for concurrent access.
type JobProgress = exp.Progress

// JobError describes one experiment cell the engine could not complete
// (panic, timeout, cancellation, or error); its Reason() is the
// deterministic one-liner the figure output carries as "incomplete".
type JobError = exp.JobError

// Profiler is the Section 3.2 forwarding profiler: attach it to a
// machine and it records, per static site, every reference that needed
// the forwarding safety net.
type Profiler = fprof.Profiler

// AttachProfiler installs a forwarding profiler on m (replacing any
// trap handler).
func AttachProfiler(m *Machine) *Profiler { return fprof.Attach(m) }

// Multiprocessor extension (Section 2.2's false-sharing application).
type (
	// System is a small cache-coherent shared-memory multiprocessor.
	System = mp.System
	// SystemConfig sizes a System.
	SystemConfig = mp.Config
	// SystemCPU is one processor of a System.
	SystemCPU = mp.CPU
)

// NewSystem builds a multiprocessor (zero config fields defaulted).
func NewSystem(cfg SystemConfig) *System { return mp.New(cfg) }

// Out-of-core extension (Section 2.2's closing observation: relocation
// improves locality within pages, and hence on disk).
type (
	// PagedStore is a page-grained, fault-counting view of tagged
	// memory with forwarding.
	PagedStore = ooc.Store
	// PagedConfig sizes a PagedStore.
	PagedConfig = ooc.Config
)

// NewPagedStore builds an out-of-core store (zero fields defaulted).
func NewPagedStore(cfg PagedConfig) *PagedStore { return ooc.New(cfg) }
