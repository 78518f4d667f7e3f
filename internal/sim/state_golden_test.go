package sim_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"memfwd/internal/apps/app"
	"memfwd/internal/apps/health"
	"memfwd/internal/apps/mst"
	"memfwd/internal/sched"
	"memfwd/internal/sim"
)

// TestEncodeStateGolden pins the snapshot codec's bytes on two real
// workloads, single-hart and with a relocator hart racing the guest.
// The encoding carries every materialized page, the provenance window
// with its capacity, and every hart's timing state, so a change to the
// tables under any of them that moved a simulated decision or an
// encoded byte fails here.
func TestEncodeStateGolden(t *testing.T) {
	want := map[string]string{
		"health/harts1": "1568e8ffff67acaf91cc380a8624f110e05b7eb393522155d7a09ea841bf3535",
		"health/harts2": "8f661fa5f6dd498e9e74a4dc0f45b6b2287776e822ad69a88709a6b147ebf75f",
		"mst/harts1":    "724d48b092e769f43e2cf7ac0547aa66d92bed03b9fa845adc462c71ba7e95c2",
		"mst/harts2":    "60171fdfa32e85a757cb39ec1e57250a752d27fd6dcba386b5aa56fe15daed8a",
	}
	for _, a := range []app.App{health.App, mst.App} {
		for _, harts := range []int{1, 2} {
			name := fmt.Sprintf("%s/harts%d", a.Name, harts)
			t.Run(name, func(t *testing.T) {
				m := sim.New(sim.Config{Harts: harts})
				cfg := app.Config{Opt: true, Seed: 9, Scale: 1}
				if harts == 1 {
					a.Run(m, cfg)
				} else {
					g, err := sched.New(m, sched.Config{Harts: harts, Seed: 3})
					if err != nil {
						t.Fatal(err)
					}
					defer g.Close()
					a.Run(g, cfg)
					g.Quiesce()
				}
				data, err := sim.EncodeState(m.SaveState())
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want[name] {
					t.Errorf("EncodeState sha256 = %s, want %s", got, want[name])
				}
			})
		}
	}
}
