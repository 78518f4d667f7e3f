package obs

import (
	"fmt"
	"math"
	"sort"

	"memfwd/internal/report"
)

// Registry is a flat namespace of read-only metric views over
// statistics their subsystems already keep: GaugeFunc views one value,
// GaugeGroup views several from one read, and AttachHistogram exposes a
// histogram's buckets. Snapshot evaluates everything at read time, so
// views are always current and cost nothing between reads.
//
// Registration is not safe for concurrent use. Once it is done,
// Snapshot may run concurrently with itself only if every registered
// view is safe to call concurrently: the session server's views read
// atomics and take the locks they need, a Machine's read its
// unsynchronized Stats and must be evaluated on its own goroutine.
type Registry struct {
	names map[string]struct{}
	// views emit one or more (name, value) pairs each; histograms
	// expand to count/sum/bucket entries.
	views []func(emit func(name string, v float64))
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

// GaugeGroup registers a read-only view that emits several values per
// snapshot from one evaluation, for gauges that share an expensive read
// (one walk of a session table, one pause of a machine). name keys the
// group for duplicate detection; the emitted names are the group's own.
func (r *Registry) GaugeGroup(name string, expand func(emit func(name string, v float64))) {
	if _, dup := r.names[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.names[name] = struct{}{}
	r.views = append(r.views, expand)
}

// GaugeFunc registers a read-only view evaluated at snapshot time.
// This is how subsystems expose their existing Stats fields without
// duplicating hot-path accounting.
func (r *Registry) GaugeFunc(name string, f func() float64) {
	r.GaugeGroup(name, func(emit func(string, float64)) { emit(name, f()) })
}

// Histogram accumulates observations into cumulative buckets.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +inf is implicit
	counts []uint64  // len(bounds)+1, last is the +inf bucket
	sum    float64
	n      uint64
	max    float64
}

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds. Attach it to a registry with AttachHistogram, or keep it
// private (the relocation span table keeps its phase histograms either
// way). A histogram is not safe for concurrent use.
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
	r.GaugeGroup(name, func(emit func(string, float64)) {
		emit(name+".count", float64(h.n))
		emit(name+".sum", h.sum)
		var cum uint64
		for i, b := range h.bounds {
			cum += h.counts[i]
			emit(fmt.Sprintf("%s.le%g", name, b), float64(cum))
		}
	})
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
	for _, view := range r.views {
		view(func(name string, v float64) {
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
