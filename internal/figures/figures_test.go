package figures

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memfwd"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the committed golden digests under testdata/")

func TestKnownNames(t *testing.T) {
	for _, n := range Names {
		if !Known(n) {
			t.Errorf("%q not recognized", n)
		}
	}
	for _, n := range []string{"fig11", "FIG5", "table", ""} {
		if Known(n) {
			t.Errorf("%q wrongly recognized", n)
		}
	}
}

// TestUnknownOnlyFails is the silent-no-op fix: an unknown -only value
// used to run nothing and exit 0; it must now be an error that names
// the valid selectors and produces no output.
func TestUnknownOnlyFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := Run(Config{Only: "fig99", Seed: 9, Scale: 1}, &stdout, &stderr)
	if err == nil {
		t.Fatal("unknown -only accepted")
	}
	if !strings.Contains(err.Error(), "fig99") || !strings.Contains(err.Error(), "table1") {
		t.Fatalf("error %q should name the bad value and the valid set", err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("unknown -only still produced output: %q", stdout.String())
	}
}

// TestEnvelopeShape checks the aggregated -json document: one
// top-level object keyed by figure name, keys in a fixed order.
func TestEnvelopeShape(t *testing.T) {
	env := Envelope{
		Fig5:  []memfwd.Run{{App: "health", Line: 32, Variant: memfwd.VariantN}},
		Fig7:  []memfwd.Run{{App: "health", Line: 32, Variant: memfwd.VariantNP, Block: 4}},
		Fig10: []memfwd.Run{{App: "smv", Line: 32, Variant: memfwd.VariantPerf}},
		Tier:  []memfwd.Run{{App: "health", Variant: memfwd.VariantAdaptive}},
	}
	var buf bytes.Buffer
	if err := memfwd.WriteJSON(&buf, env); err != nil {
		t.Fatal(err)
	}
	var m map[string][]memfwd.Run
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("envelope is not one JSON object: %v", err)
	}
	for _, key := range []string{"fig5", "fig7", "fig10", "tier"} {
		if _, ok := m[key]; !ok {
			t.Errorf("envelope missing key %q", key)
		}
	}
	if len(m) != 4 {
		t.Errorf("envelope has %d keys, want 4", len(m))
	}
	i5 := bytes.Index(buf.Bytes(), []byte(`"fig5"`))
	i7 := bytes.Index(buf.Bytes(), []byte(`"fig7"`))
	i10 := bytes.Index(buf.Bytes(), []byte(`"fig10"`))
	it := bytes.Index(buf.Bytes(), []byte(`"tier"`))
	if !(i5 < i7 && i7 < i10 && i10 < it) {
		t.Errorf("key order not fixed: fig5@%d fig7@%d fig10@%d tier@%d", i5, i7, i10, it)
	}
}

// TestJSONDeterministicAcrossJobs runs the cheapest run-series figure
// end to end and requires byte-identical stdout at different worker
// counts — the pipeline-level determinism guarantee — and then checks
// the output against the golden digest committed under testdata/, so
// the whole simulator stack (allocator layout, relocation order, cycle
// accounting, JSON encoding) is pinned across commits, not just across
// worker counts. Regenerate deliberately with -update-golden after a
// change that is supposed to move the numbers.
func TestJSONDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six SMV simulations")
	}
	out := func(jobs int) []byte {
		var stdout, stderr bytes.Buffer
		if err := Run(Config{Only: "fig10", JSON: true, Seed: 9, Scale: 1, Jobs: jobs}, &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		return stdout.Bytes()
	}
	a, b := out(1), out(8)
	if len(a) == 0 {
		t.Fatal("no JSON output")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("fig10 JSON differs between jobs=1 and jobs=8")
	}

	checkDigest(t, "fig10", "fig10-json.digest", a)
}

// checkDigest compares out's SHA-256 and length against the golden
// digest file under testdata/ (or rewrites it under -update-golden).
func checkDigest(t *testing.T, what, file string, out []byte) {
	t.Helper()
	got := fmt.Sprintf("sha256:%x bytes:%d\n", sha256.Sum256(out), len(out))
	golden := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden digest (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s JSON drifted from the committed golden:\n got %s want %s"+
			"(run with -update-golden if the change is intentional)", what, got, want)
	}
}

// TestTierFigureGoldenAndAdaptiveWins pins the tiering experiment the
// same way: byte-identical JSON at different worker counts, a digest
// committed under testdata/, and the experiment's headline claims —
// the online adaptive migrator must beat the one-shot static pass on
// at least one phase-changing application, and neither tiered arm may
// change any application's checksum (residency is re-decided through
// forwarding-safe relocation; results are untouchable).
func TestTierFigureGoldenAndAdaptiveWins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 24 application simulations")
	}
	out := func(jobs int) []byte {
		var stdout, stderr bytes.Buffer
		if err := Run(Config{Only: "tier", JSON: true, Seed: 9, Scale: 1, Jobs: jobs}, &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		return stdout.Bytes()
	}
	a, b := out(1), out(8)
	if len(a) == 0 {
		t.Fatal("no JSON output")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("tier JSON differs between jobs=1 and jobs=8")
	}

	var runs []memfwd.Run
	if err := json.Unmarshal(a, &runs); err != nil {
		t.Fatalf("tier JSON does not decode: %v", err)
	}
	get := func(app string, v memfwd.Variant) memfwd.Run {
		for _, r := range runs {
			if r.App == app && r.Variant == v {
				return r
			}
		}
		t.Fatalf("run %s/%s missing", app, v)
		return memfwd.Run{}
	}
	wins := 0
	for _, app := range []string{"health", "radiosity", "smv", "vis"} {
		st, ad := get(app, memfwd.VariantStatic), get(app, memfwd.VariantAdaptive)
		if st.Stats == nil || ad.Stats == nil {
			t.Fatalf("%s: incomplete tier cells", app)
		}
		if ad.Stats.Cycles < st.Stats.Cycles {
			wins++
		}
	}
	if wins == 0 {
		t.Error("online adaptive tiering beat one-shot static on no phase-changing app")
	}
	for _, appName := range []string{"compress", "eqntott", "bh", "health", "mst", "radiosity", "smv", "vis"} {
		flat := get(appName, memfwd.VariantFlat)
		for _, v := range []memfwd.Variant{memfwd.VariantStatic, memfwd.VariantAdaptive} {
			if r := get(appName, v); r.Result.Checksum != flat.Result.Checksum {
				t.Errorf("%s/%s checksum %#x != flat %#x: tiering changed program results",
					appName, v, r.Result.Checksum, flat.Result.Checksum)
			}
		}
	}

	checkDigest(t, "tier", "tier-json.digest", a)
}

// TestTierFigureGoldenSeed5 pins the tier figure at a second seed, so
// the daemon's decisions are held at more than the one seed the
// benchmark also runs.
func TestTierFigureGoldenSeed5(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 24 application simulations")
	}
	var stdout, stderr bytes.Buffer
	if err := Run(Config{Only: "tier", JSON: true, Seed: 5, Scale: 1, Jobs: 2}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() == 0 {
		t.Fatal("no JSON output")
	}
	checkDigest(t, "tier seed-5", "tier-json-seed5.digest", stdout.Bytes())
}
