package sim

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"memfwd/internal/core"
	"memfwd/internal/mem"
	"memfwd/internal/obs"
)

// TestSaveStateCarriesTrapHandler: the trap handler travels verbatim
// with the state, so a restored session keeps firing the same
// user-level forwarding handler (serve re-attaches observability, but
// the handler is guest semantics and must migrate).
func TestSaveStateCarriesTrapHandler(t *testing.T) {
	m := New(Config{LineSize: 64})
	fired := 0
	m.SetTrap(func(core.Event) { fired++ })

	b := m.Malloc(2 * mem.WordSize)
	m.StoreWord(b, 5)
	// Forge a one-hop chain by hand (UnforwardedWrite is the ISA-level
	// primitive; geometry does not matter for this test).
	tgt := mem.Addr(0x6000_0000)
	m.UnforwardedWrite(tgt, 5, false)
	m.UnforwardedWrite(b, uint64(tgt), true)

	m.Load(b, 8)
	if fired != 1 {
		t.Fatalf("source trap fired %d times, want 1", fired)
	}

	st := m.SaveState()
	m2 := New(Config{LineSize: 64})
	if err := m2.LoadState(st); err != nil {
		t.Fatal(err)
	}
	m2.Load(b, 8)
	if fired != 2 {
		t.Fatalf("restored trap fired %d times total, want 2", fired)
	}
}

// TestLoadStateKeepsTargetAttachments: observability wiring (heat map,
// tracer) is process-local and stays with the target machine across a
// restore — LoadState must not detach it and must leave it functional.
func TestLoadStateKeepsTargetAttachments(t *testing.T) {
	src := New(Config{LineSize: 64})
	b := src.Malloc(64)
	src.StoreWord(b, 1)
	st := src.SaveState()

	dst := New(Config{LineSize: 64})
	heat := obs.NewHeatMap(16, 0)
	dst.SetHeatMap(heat)
	sink := &obs.MemorySink{}
	tr := obs.NewTracer(sink, 16)
	dst.SetTracer(tr)
	if err := dst.LoadState(st); err != nil {
		t.Fatal(err)
	}
	if dst.HeatMap() != heat || dst.Tracer() != tr {
		t.Fatal("LoadState dropped the target's observability attachments")
	}
	dst.Load(b, 8)
	nb := dst.Malloc(32)
	if nb == 0 {
		t.Fatal("restored machine failed to allocate")
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(sink.Events) == 0 {
		t.Fatal("tracer attached to restored machine emitted nothing")
	}
}

// allocBytes returns the fewest heap bytes f allocated over three calls,
// each given its own setup.
func allocBytes(setup func(), f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		setup()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestSnapshotKeepsOnlyHeldWords: a machine whose 64 pages each hold
// one 8-word block, the shape a raw session's page-per-relocation arena
// leaves, costs SaveState under a quarter of its pages' dense bytes,
// and LoadState onto a machine fresh from New thaws the provenance
// window into that machine's own table instead of allocating one. A
// copy of every page whole, or of the window's table, fails both.
func TestSnapshotKeepsOnlyHeldWords(t *testing.T) {
	const pages = 64
	cfg := Config{L2Size: 8 << 10} // a small L2 keeps its line copies out of the measure
	m := New(cfg)
	for p := 0; p < pages; p++ {
		for w := 0; w < 8; w++ {
			m.Mem.WriteWord(mem.Addr(0x4_0000_0000+p*mem.PageBytes+w*mem.WordSize), uint64(p*8+w+1))
		}
	}
	b := m.Malloc(64)
	for w := 0; w < 8; w++ { // loaded heap pointers enter the provenance window
		m.StoreWord(b+mem.Addr(w*mem.WordSize), uint64(b)+uint64(w*mem.WordSize))
		m.LoadWord(b + mem.Addr(w*mem.WordSize))
	}
	if m.ptrProv.Len() == 0 {
		t.Fatal("the provenance window is empty")
	}
	dense := uint64(m.Mem.PagesTouched() * (mem.PageBytes + mem.PageWords/8))

	var st *MachineState
	saved := allocBytes(func() {}, func() { st = m.SaveState() })
	if saved >= dense/4 {
		t.Errorf("SaveState allocated %d bytes, want under a quarter of the %d dense bytes", saved, dense)
	}

	var fresh *Machine
	provBytes := uint64(m.ptrProv.Cap()) * uint64(unsafe.Sizeof(struct {
		k uint64
		e ptrEntry
	}{}))
	loaded := allocBytes(func() { fresh = New(cfg) }, func() {
		if err := fresh.LoadState(st); err != nil {
			t.Fatal(err)
		}
	})
	if loaded >= dense+provBytes/2 {
		t.Errorf("LoadState allocated %d bytes: the %d dense page bytes plus a %d-byte provenance table",
			loaded, dense, loaded-dense)
	}
	t.Logf("dense pages %d B; SaveState %d B; LoadState %d B", dense, saved, loaded)
	want, err := EncodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := EncodeState(fresh.SaveState()); !bytes.Equal(again, want) {
		t.Fatal("the restored machine saves a different state")
	}
}

// TestLoadStateFromAnotherHart: a multi-hart machine parked on a
// relocator hart loads a state onto its own harts, hart for hart, so
// it saves exactly the state it loaded. Before, the primary hart's
// state landed in the parked hart's pipeline and caches.
func TestLoadStateFromAnotherHart(t *testing.T) {
	cfg := Config{Harts: 2}
	src := New(cfg)
	b := src.Malloc(64)
	src.StoreWord(b, uint64(b))
	src.LoadWord(b)
	src.Inst(100)
	src.SetHart(1)
	src.LoadWord(b)
	src.SetHart(0)
	st := src.SaveState()
	want, err := EncodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	dst := New(cfg)
	dst.SetHart(1)
	dst.Inst(7)
	if err := dst.LoadState(st); err != nil {
		t.Fatal(err)
	}
	if got, _ := EncodeState(dst.SaveState()); !bytes.Equal(got, want) {
		t.Fatal("a machine that loaded a state on hart 1 saves a different one")
	}
}
