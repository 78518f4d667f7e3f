package sim_test

import (
	"bytes"
	"fmt"
	"testing"

	"memfwd/internal/apps/app"
	"memfwd/internal/mem"
	"memfwd/internal/opt"
	"memfwd/internal/oracle"
	"memfwd/internal/sched"
	"memfwd/internal/sim"
)

// interpret executes a byte program against any machine. Each 3-byte
// instruction (op, x, y) maps onto the guest ISA surface: allocation,
// word/byte loads and stores, pool-backed relocation (including chain-
// lengthening re-relocation of an already-moved block), deallocation,
// and pointer comparison. Every guest-visible value is appended to the
// returned trace, so two machines agree iff their traces are equal.
func interpret(m app.Machine, prog []byte) []uint64 {
	var (
		out    []uint64
		blocks []mem.Addr
		sizes  []uint64
	)
	pool := opt.NewPool(m, 1024)
	emit := func(v uint64) { out = append(out, v) }
	for pc := 0; pc+2 < len(prog); pc += 3 {
		op, x, y := prog[pc], prog[pc+1], prog[pc+2]
		pick := func() int { return int(x) % len(blocks) }
		switch op % 9 {
		case 0: // malloc
			if len(blocks) < 64 {
				size := uint64(x%16+1) * 8
				a := m.Malloc(size)
				blocks = append(blocks, a)
				sizes = append(sizes, size)
				emit(uint64(a))
			}
		case 1: // store word
			if len(blocks) > 0 {
				i := pick()
				off := mem.Addr(uint64(y)*8) % mem.Addr(sizes[i])
				m.StoreWord(blocks[i]+off, uint64(x)<<8|uint64(y))
			}
		case 2: // load word
			if len(blocks) > 0 {
				i := pick()
				off := mem.Addr(uint64(y)*8) % mem.Addr(sizes[i])
				emit(m.LoadWord(blocks[i] + off))
			}
		case 3: // byte load at an arbitrary (possibly misaligned) offset
			if len(blocks) > 0 {
				i := pick()
				off := mem.Addr(y) % mem.Addr(sizes[i])
				emit(uint64(m.Load8(blocks[i] + off)))
			}
		case 4: // byte store at an arbitrary offset
			if len(blocks) > 0 {
				i := pick()
				off := mem.Addr(y) % mem.Addr(sizes[i])
				m.Store8(blocks[i]+off, x^y)
			}
		case 5: // relocate (re-relocation lengthens the chain)
			if len(blocks) > 0 {
				i := pick()
				opt.Relocate(m, blocks[i], pool.Alloc(sizes[i]), int(sizes[i]/8))
			}
		case 6: // free
			if len(blocks) > 0 {
				i := pick()
				m.Free(blocks[i])
				blocks = append(blocks[:i], blocks[i+1:]...)
				sizes = append(sizes[:i], sizes[i+1:]...)
			}
		case 7: // pointer comparison through forwarding
			if len(blocks) > 1 {
				i, j := pick(), int(y)%len(blocks)
				var v uint64
				if m.PtrEqual(blocks[i], blocks[j]) {
					v = 1
				}
				emit(v)
			}
		case 8: // hart switch (meaningful only under a scheduling group)
			if hs, ok := m.(interface{ SetGuestHart(int) }); ok {
				hs.SetGuestHart(int(x) % fuzzHarts)
			}
		}
	}
	return out
}

// fuzzHarts is the hart count both scheduling groups in FuzzMachineOps
// run with — also the modulus of the hart-switch opcode.
const fuzzHarts = 2

// FuzzMachineOps is the sim-level differential fuzzer: an arbitrary
// byte program runs on the full out-of-order timing simulator and on
// the functional oracle — first bare, then wrapped in equal-seeded
// multi-hart scheduling groups whose relocator harts (with crash
// injection enabled) race the program's own loads, stores, and
// relocations. Guest-visible traces, final-heap digests modulo
// forwarding, and every invariant checker must all agree across all
// four runs: concurrent relocation and crash recovery must be
// completely invisible to the guest.
func FuzzMachineOps(f *testing.F) {
	f.Add([]byte{0, 5, 0, 1, 0, 3, 2, 0, 3, 5, 0, 0, 2, 0, 3})
	f.Add([]byte{0, 15, 0, 0, 3, 0, 5, 0, 0, 5, 0, 0, 3, 0, 9, 6, 0, 0})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 7, 0, 1, 4, 0, 5, 3, 0, 5, 5, 1, 0})
	f.Add(bytes.Repeat([]byte{0, 9, 0, 1, 2, 4, 5, 1, 0, 2, 2, 4}, 8))
	// A dense load/store stream over one large block with hart switches:
	// every access is a scheduling point, so group jobs interleave their
	// copy and plant words throughout — loads race mid-plant forwarding
	// words, and the hart-switch opcode moves the guest across pipelines
	// while jobs are in flight.
	f.Add(append([]byte{0, 15, 0, 1, 0, 1, 1, 0, 2},
		bytes.Repeat([]byte{2, 0, 1, 8, 1, 0, 2, 0, 3, 1, 0, 4, 8, 0, 0, 2, 0, 5}, 13)...))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 258 {
			prog = prog[:258]
		}
		sm := sim.New(sim.Config{})
		simTrace := interpret(sm, prog)
		sm.Finalize()
		om := oracle.New(oracle.Config{})
		oraTrace := interpret(om, prog)

		diffTraces := func(name string, got, want []uint64) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s: trace lengths diverged: %d, want %d", name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: trace[%d]: %#x, want %#x", name, i, got[i], want[i])
				}
			}
		}
		diffTraces("sim vs oracle", simTrace, oraTrace)
		dSim, err := oracle.DigestModuloForwarding(sm.Mem, sm.Fwd, sm.Alloc)
		if err != nil {
			t.Fatal(err)
		}
		dOra, err := oracle.DigestModuloForwarding(om.Mem, om.Fwd, om.Alloc)
		if err != nil {
			t.Fatal(err)
		}
		if dSim != dOra {
			t.Fatalf("heap digests diverged: sim %#x, oracle %#x", dSim, dOra)
		}
		if err := oracle.CheckMachine(sm); err != nil {
			t.Error(fmt.Errorf("sim invariants: %w", err))
		}
		if err := oracle.CheckForwarding(om.Mem, om.Fwd); err != nil {
			t.Error(fmt.Errorf("oracle invariants: %w", err))
		}

		// Round 2: the same program under equal-seeded scheduling groups.
		// Concurrent (and crashing) relocations must not change a single
		// guest-visible value relative to the bare runs above, and the
		// two groups must interleave identically.
		scfg := sched.Config{Harts: fuzzHarts, Seed: 11, Interval: 6}
		sm2 := sim.New(sim.Config{Harts: fuzzHarts})
		sg, err := sched.New(sm2, scfg)
		if err != nil {
			t.Fatal(err)
		}
		sg.EnableFaults()
		sgTrace := interpret(sg, prog)
		sg.Quiesce()
		sm2.Finalize()

		om2 := oracle.New(oracle.Config{})
		og, err := sched.New(om2, scfg)
		if err != nil {
			t.Fatal(err)
		}
		og.EnableFaults()
		ogTrace := interpret(og, prog)
		og.Quiesce()

		diffTraces("sim group vs bare", sgTrace, simTrace)
		diffTraces("oracle group vs bare", ogTrace, oraTrace)
		dSg, err := oracle.DigestModuloForwarding(sm2.Mem, sm2.Fwd, sm2.Alloc)
		if err != nil {
			t.Fatal(err)
		}
		dOg, err := oracle.DigestModuloForwarding(om2.Mem, om2.Fwd, om2.Alloc)
		if err != nil {
			t.Fatal(err)
		}
		if dSg != dSim || dOg != dSim {
			t.Fatalf("group heap digests diverged: sim group %#x, oracle group %#x, want %#x", dSg, dOg, dSim)
		}
		if sg.Stats() != og.Stats() {
			t.Fatalf("group schedules diverged: sim %+v, oracle %+v", sg.Stats(), og.Stats())
		}
		if err := oracle.CheckMachine(sm2); err != nil {
			t.Error(fmt.Errorf("sim group invariants: %w", err))
		}
		if err := oracle.CheckForwarding(om2.Mem, om2.Fwd); err != nil {
			t.Error(fmt.Errorf("oracle group invariants: %w", err))
		}
	})
}
