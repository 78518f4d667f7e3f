package memfwd

import (
	"encoding/json"
	"net/http"
	"testing"

	"memfwd/internal/apps/app"
	"memfwd/internal/fprof"
	"memfwd/internal/mem"
	"memfwd/internal/sched"
	"memfwd/internal/tier"
)

// TestStackOrder pins the wrapping order every caller gets: the
// scheduling group innermost, then the tiering daemon, then the chaos
// adversary, with the guest on the outermost agent.
func TestStackOrder(t *testing.T) {
	tc := mem.DefaultTierConfig(2, DefaultMachineConfig().MemLatency)
	m := NewMachine(MachineConfig{Harts: 2, Tiers: tc})
	stk, err := NewStack(m, m, sched.Config{Harts: 2, Seed: 1}, tier.Config{Tiers: tc, Seed: 1}, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	chain := []app.Machine{stk.Guest, stk.Daemon, stk.Group, m}
	if stk.Guest != app.Machine(stk.Chaos) {
		t.Fatal("the guest does not run on the chaos adversary")
	}
	for i, u := range []interface{ Unwrap() app.Machine }{stk.Chaos, stk.Daemon, stk.Group} {
		if got := u.Unwrap(); got != chain[i+1] {
			t.Fatalf("layer %d wraps %T, want %T", i, got, chain[i+1])
		}
	}
	if m.HeatMap() == nil || stk.Daemon.Heat() != m.HeatMap() {
		t.Fatal("the daemon does not rank from the machine's heat map")
	}

	bare, err := NewStack(m, m, sched.Config{Harts: 1}, tier.Config{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Guest != app.Machine(m) || bare.Group != nil || bare.Daemon != nil || bare.Chaos != nil {
		t.Fatalf("a run asking for no agent got %+v", bare)
	}
	if gs, ts := bare.Stats(); gs != nil || ts != nil {
		t.Fatal("a stack without agents reports agent stats")
	}
}

// TestProfilerThroughTieredStack: the forwarding profiler installed
// through a tiered stack's guest sees every forwarded reference the
// machine counts. The daemon masks the trap handler during each wake
// and restores only one installed through it, so a profiler on the
// machine beneath goes quiet at the first wake.
func TestProfilerThroughTieredStack(t *testing.T) {
	tc := mem.DefaultTierConfig(2, DefaultMachineConfig().MemLatency)
	m := NewMachine(MachineConfig{Tiers: tc})
	stk, err := NewStack(m, m, sched.Config{}, tier.Config{Tiers: tc, Seed: 9}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	prof := fprof.AttachThrough(m, stk.Guest)
	stk.Run(MustApp("smv"), AppConfig{Opt: true, Seed: 9, Scale: 1})
	st := m.Finalize()
	if _, ts := stk.Stats(); ts == nil || ts.Wakes == 0 {
		t.Fatal("the daemon never woke, so its trap masking went untested")
	}
	var loads, stores uint64
	for _, sp := range prof.Sites() {
		loads += sp.Loads
		stores += sp.Stores
	}
	if loads == 0 || loads != st.LoadsForwarded() || stores != st.StoresForwarded() {
		t.Fatalf("profile %d loads, %d stores; machine forwarded %d loads, %d stores",
			loads, stores, st.LoadsForwarded(), st.StoresForwarded())
	}
}

// TestRunOneTelemetryRecordsHartSpans: a cell's relocator harts record
// into the span table the telemetry plane publishes. The harts take the
// table present when the stack is built, so RunOne puts it on the
// machine before NewStack instead of leaving it to Watch.
func TestRunOneTelemetryRecordsHartSpans(t *testing.T) {
	srv, err := StartTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	RunOne(MustApp("health"), 32, VariantL, 0, Options{Seed: 5, Harts: 2, Telemetry: srv})
	resp, err := http.Get("http://" + srv.Addr() + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap SpanSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, sp := range snap.Recent {
		if sp.Hart > 0 {
			return
		}
	}
	t.Fatalf("no relocator-hart span among %d published spans", len(snap.Recent))
}
