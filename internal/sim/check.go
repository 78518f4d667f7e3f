package sim

import (
	"fmt"

	"memfwd/internal/mem"
)

// CheckInvariants verifies the machine's internal bookkeeping
// invariants that outside packages cannot see — currently the
// pointer-provenance table behind addrReady/recordPtr. It is intended
// to be callable from any test (the differential harness runs it after
// every run), including mid-run: the only mutation it performs is a
// provenance sweep, which is timing-invisible by construction (see
// evictProv).
//
// Checked invariants:
//
//   - structural consistency: the occupancy count matches the number
//     of occupied slots, and every occupied slot's entry is reachable
//     through get (linear probing never strands an entry).
//   - entry sanity: every entry's key is derived from its recorded
//     base (key == base>>8) and the base lies within the heap, since
//     recordPtr filters out non-heap values.
//   - eviction timing bound: a forced sweep removes exactly the
//     entries whose ready time is at or below the pipeline's dispatch
//     floor, and every survivor is strictly above it. Entries at or
//     below the floor can never again delay an issue, so this is the
//     precise condition under which eviction cannot perturb timing.
func (m *Machine) CheckInvariants() error {
	occupied := 0
	below := 0
	floor := m.Pipe.DispatchFloor()
	var err error
	m.ptrProv.Each(func(k uint64, e ptrEntry) {
		occupied++
		if err != nil {
			return
		}
		if _, ok := m.ptrProv.Get(k); !ok {
			err = fmt.Errorf("sim: prov entry %#x stranded (unreachable by probe)", k)
		} else if e.base>>8 != k {
			err = fmt.Errorf("sim: prov entry key %#x inconsistent with base %#x", k, e.base)
		} else if a := mem.Addr(e.base); a < m.cfg.HeapBase || a >= m.cfg.HeapBase+mem.Addr(m.cfg.HeapLimit) {
			err = fmt.Errorf("sim: prov entry base %#x outside heap", e.base)
		} else if e.ready <= floor {
			below++
		}
	})
	if err != nil {
		return err
	}
	if occupied != m.ptrProv.Len() {
		return fmt.Errorf("sim: prov occupancy %d != recorded count %d", occupied, m.ptrProv.Len())
	}
	before := m.ptrProv.Len()
	m.evictProv()
	if got, want := before-m.ptrProv.Len(), below; got != want {
		return fmt.Errorf("sim: prov sweep evicted %d entries, %d were at or below dispatch floor %d",
			got, want, floor)
	}
	m.ptrProv.Each(func(_ uint64, e ptrEntry) {
		if err == nil && e.ready <= floor {
			err = fmt.Errorf("sim: prov entry base %#x survived sweep with ready %d <= floor %d",
				e.base, e.ready, floor)
		}
	})
	return err
}
