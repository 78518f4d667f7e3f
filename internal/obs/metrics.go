package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"memfwd/internal/report"
)

// Registry is a flat namespace of metrics. Subsystems register either
// live instruments (Counter, Gauge, Histogram) or read-only GaugeFunc
// views over statistics they already keep; Snapshot evaluates
// everything at read time, so views are always current and cost nothing
// between reads.
//
// The registry is not safe for concurrent use, matching the Machine it
// instruments.
type Registry struct {
	names map[string]struct{}
	items []metricItem
}

type metricItem struct {
	name string
	// expand appends one or more (name, value) pairs; histograms
	// expand to count/sum/bucket entries.
	expand func(emit func(name string, v float64))
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

func (r *Registry) register(name string, expand func(emit func(string, float64))) {
	if _, dup := r.names[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.names[name] = struct{}{}
	r.items = append(r.items, metricItem{name: name, expand: expand})
}

// Counter is a monotonically increasing count.
type Counter struct {
	v float64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n (must be non-negative to keep the counter monotone).
func (c *Counter) Add(n float64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v }

// Counter registers and returns a new counter.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.register(name, func(emit func(string, float64)) { emit(name, c.v) })
	return c
}

// Gauge is a value that can move in either direction.
type Gauge struct {
	v float64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add adjusts the value by d.
func (g *Gauge) Add(d float64) { g.v += d }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name string) *Gauge {
	g := &Gauge{}
	r.register(name, func(emit func(string, float64)) { emit(name, g.v) })
	return g
}

// GaugeFunc registers a read-only view evaluated at snapshot time.
// This is how subsystems expose their existing Stats fields without
// duplicating hot-path accounting.
func (r *Registry) GaugeFunc(name string, f func() float64) {
	r.register(name, func(emit func(string, float64)) { emit(name, f()) })
}

// Histogram accumulates observations into cumulative buckets.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +inf is implicit
	counts []uint64  // len(bounds)+1, last is the +inf bucket
	sum    float64
	n      uint64
	max    float64
}

// NewHistogram builds an unregistered histogram with the given
// ascending bucket upper bounds. Attach it to a registry with
// AttachHistogram, or keep it private (the relocation span table keeps
// its phase histograms either way).
func NewHistogram(bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds not ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.n++
	h.sum += v
	if h.n == 1 || v > h.max {
		h.max = v
	}
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Max returns the largest observed value (0 before any observation).
func (h *Histogram) Max() float64 { return h.max }

// Quantile estimates the q-quantile (q in [0,1]) by linear
// interpolation within the bucket containing the target rank; values in
// the overflow bucket are reported as the exact observed maximum. With
// no observations it returns 0. The estimate is exact at q=1 and never
// exceeds Max.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.n)
	var cum uint64
	lower := 0.0
	for i, b := range h.bounds {
		c := h.counts[i]
		if float64(cum+c) >= target && c > 0 {
			frac := (target - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			v := lower + (b-lower)*frac
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum += c
		lower = b
	}
	return h.max
}

// AttachHistogram registers an existing histogram under name; it
// expands in snapshots to name.count, name.sum, and cumulative name.le*
// entries.
func (r *Registry) AttachHistogram(name string, h *Histogram) {
	r.register(name, func(emit func(string, float64)) {
		emit(name+".count", float64(h.n))
		emit(name+".sum", h.sum)
		var cum uint64
		for i, b := range h.bounds {
			cum += h.counts[i]
			emit(fmt.Sprintf("%s.le%g", name, b), float64(cum))
		}
	})
}

// Histogram registers and returns a histogram with the given ascending
// bucket upper bounds. It expands in snapshots to name.count, name.sum,
// and cumulative name.le* entries.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	h := NewHistogram(bounds...)
	r.AttachHistogram(name, h)
	return h
}

// MetricValue is one evaluated metric.
type MetricValue struct {
	Name  string
	Value float64
}

// Snapshot evaluates every metric and returns the values sorted by
// name, so output is deterministic regardless of registration order.
func (r *Registry) Snapshot() []MetricValue {
	var out []MetricValue
	for _, it := range r.items {
		it.expand(func(name string, v float64) {
			out = append(out, MetricValue{Name: name, Value: v})
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Table renders the snapshot as a two-column table.
func (r *Registry) Table() *report.Table {
	t := report.New("Metrics", "metric", "value")
	for _, mv := range r.Snapshot() {
		t.Add(mv.Name, formatMetric(mv.Value))
	}
	return t
}

// Finite maps NaN and ±Inf to 0 and returns every other value
// unchanged: the one policy every metric surface applies, so tables,
// JSON documents (encoding/json rejects non-finite values outright) and
// monitoring scrapes stay well-formed whatever a computed gauge's
// denominators were.
func Finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func formatMetric(v float64) string {
	v = Finite(v)
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4f", v)
}

// WriteJSON emits the snapshot as one JSON object keyed by metric name,
// keys in sorted order.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	// Marshal by hand to keep key order deterministic (maps reorder).
	if _, err := io.WriteString(w, "{\n"); err != nil {
		return err
	}
	for i, mv := range snap {
		key, err := json.Marshal(mv.Name)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(snap)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "  %s: %s%s", key, formatMetric(mv.Value), sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}
