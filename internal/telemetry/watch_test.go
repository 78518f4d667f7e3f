package telemetry

import (
	"encoding/json"
	"testing"
	"time"

	"memfwd/internal/obs"
	"memfwd/internal/sim"
)

// TestWatchPublishesMachine: Watch feeds a machine's events to the hub,
// keeps the heat map the machine already has, and without a series of
// the run's own publishes the registry, heat map and samples every
// DefaultSampleEvery instructions.
func TestWatchPublishesMachine(t *testing.T) {
	s := startServer(t)
	m := sim.New(sim.Config{})
	m.SetHeatMap(obs.NewHeatMap(2, 0)) // two rows: evictions show this map is the one published
	reg := obs.NewRegistry()
	m.RegisterMetrics(reg)
	sub := s.Hub().Subscribe(64)
	defer sub.Unsubscribe()

	tr, publish := s.Watch(m, nil, reg)
	for i := 0; i < 4; i++ {
		m.StoreWord(m.Malloc(64), uint64(i))
	}
	m.Inst(DefaultSampleEvery + 1) // crosses the first sample point

	var samples struct {
		Every   uint64       `json:"every"`
		Samples []obs.Sample `json:"samples"`
	}
	_, body := get(t, s, "/samples")
	if err := json.Unmarshal(body, &samples); err != nil {
		t.Fatal(err)
	}
	if samples.Every != DefaultSampleEvery || len(samples.Samples) == 0 {
		t.Fatalf("samples not published at the default cadence: every %d, %d samples", samples.Every, len(samples.Samples))
	}
	var heat obs.HeatSnapshot
	_, body = get(t, s, "/heatmap")
	if err := json.Unmarshal(body, &heat); err != nil {
		t.Fatal(err)
	}
	if heat.Evicted == 0 {
		t.Fatalf("published heat map is not the machine's two-row one: %+v", heat)
	}
	var doc struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	_, body = get(t, s, "/metrics")
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Metrics["cpu.instructions"] < DefaultSampleEvery {
		t.Fatalf("registry not published: cpu.instructions = %v", doc.Metrics["cpu.instructions"])
	}

	publish()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case batch := <-sub.C:
		if len(batch) == 0 {
			t.Fatal("empty event batch")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no events reached the hub")
	}
}
