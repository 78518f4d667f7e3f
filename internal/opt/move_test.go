package opt

import (
	"fmt"
	"reflect"
	"testing"

	"memfwd/internal/apps/app"
	"memfwd/internal/fault"
	"memfwd/internal/mem"
	"memfwd/internal/obs"
	"memfwd/internal/sim"
)

// wordCounter counts the word accesses a move makes through its
// machine and logs its writes.
type wordCounter struct {
	app.Interceptor
	accesses int
	writes   []wordWrite
}

type wordWrite struct {
	a    mem.Addr
	v    uint64
	fbit bool
}

func (w *wordCounter) ReadFBit(a mem.Addr) bool {
	w.accesses++
	return w.Machine.ReadFBit(a)
}

func (w *wordCounter) UnforwardedRead(a mem.Addr) (uint64, bool) {
	w.accesses++
	return w.Machine.UnforwardedRead(a)
}

func (w *wordCounter) UnforwardedWrite(a mem.Addr, v uint64, fbit bool) {
	w.accesses++
	w.writes = append(w.writes, wordWrite{a, v, fbit})
	w.Machine.UnforwardedWrite(a, v, fbit)
}

// moveCase is a move of a words-long block each of whose words already
// forwards through a chain of chain hops, under a private injector
// armed with plan (none when plan.Visit is 0).
type moveCase struct {
	chain, words int
	plan         fault.Shot
}

func (mc moveCase) String() string {
	return fmt.Sprintf("chain=%d words=%d plan=%v", mc.chain, mc.words, mc.plan)
}

// moveRun is everything a move leaves behind.
type moveRun struct {
	state    *sim.MachineState
	journal  fault.Journal
	shots    []fault.Shot
	spans    []obs.RelocationSpan
	err      string
	accesses int
}

// run makes the case's move on a fresh machine, stepped or through
// TryRelocate.
func (mc moveCase) run(t *testing.T, stepped bool) moveRun {
	t.Helper()
	m := sim.New(sim.Config{LineSize: 128})
	base := m.Malloc(uint64(mc.words) * mem.WordSize)
	for i := 0; i < mc.words; i++ {
		m.StoreWord(base+wordOff(i), uint64(100+i))
	}
	far := outOfHeap(m, mc.words)
	for k := 0; k < mc.chain; k++ {
		if err := TryRelocate(m, base, far+mem.Addr(k*0x1000), mc.words); err != nil {
			t.Fatalf("%v: building the chain: %v", mc, err)
		}
	}
	ends := base // where the move's plants land
	if mc.chain > 0 {
		ends = far + mem.Addr((mc.chain-1)*0x1000)
	}
	tgt := far + mem.Addr(mc.chain*0x1000)

	st := obs.NewSpanTable(4)
	c := Context{Spans: st, Clock: m}
	if mc.plan.Visit > 0 {
		c.Faults = fault.New(7).Arm(mc.plan.Kind, mc.plan.Point, mc.plan.Visit)
		c.Private = true
	}
	wc := &wordCounter{}
	wc.Interceptor = app.NewInterceptor(m, wc)
	var err error
	if stepped {
		err = mc.step(t, c.NewMove(wc, base, tgt, mc.words), wc)
	} else {
		err = func() (err error) {
			defer fault.RecoverCrash(&err)
			return c.TryRelocate(wc, base, tgt, mc.words)
		}()
	}
	if stepped && !c.Faults.Fired() {
		mc.checkWrites(t, wc.writes, ends, tgt)
	}
	r := moveRun{state: m.SaveState(), spans: st.Spans(), accesses: wc.accesses}
	if err != nil {
		r.err = err.Error()
	}
	if c.Faults != nil {
		r.journal, r.shots = c.Faults.Journal, c.Faults.Shots
	}
	return r
}

// step runs mv a Step at a time and checks each step's word accesses:
// exactly one in every step but the last, which makes none, as does a
// step a crash ends.
func (mc moveCase) step(t *testing.T, mv *Move, wc *wordCounter) error {
	t.Helper()
	for n := 1; ; n++ {
		before := wc.accesses
		done, err := stepMove(mv)
		made := wc.accesses - before
		if done || err != nil {
			if made != 0 {
				t.Fatalf("%v: the last step (%d) made %d word accesses, want none", mc, n, made)
			}
			return err
		}
		if made != 1 {
			t.Fatalf("%v: step %d made %d word accesses, want 1", mc, n, made)
		}
	}
}

// lastVisit is the last visit to p a words-long move can make.
func lastVisit(p fault.Point, words int) int {
	switch p {
	case fault.RelocateCopied, fault.RelocatePlant, fault.CopyWrite, fault.PlantWrite:
		return words
	case fault.MemWrite:
		return 2 * words
	}
	return 1
}

func stepMove(mv *Move) (done bool, err error) {
	defer fault.RecoverCrash(&err)
	return mv.Step()
}

// checkWrites checks a move's writes through its machine: the copies
// of words 0..n-1 into tgt, then one plant per word at its chain end,
// and nothing else — the refresh before a plant reads and writes
// through the forwarder, in the plant's own step.
func (mc moveCase) checkWrites(t *testing.T, ws []wordWrite, ends, tgt mem.Addr) {
	t.Helper()
	if len(ws) != 2*mc.words {
		t.Fatalf("%v: %d writes, want %d copies and %d plants", mc, len(ws), mc.words, mc.words)
	}
	for i := 0; i < mc.words; i++ {
		if cp := ws[i]; cp.a != tgt+wordOff(i) || cp.v != uint64(100+i) || cp.fbit {
			t.Errorf("%v: copy %d is %+v", mc, i, cp)
		}
		want := wordWrite{ends + wordOff(i), uint64(tgt + wordOff(i)), true}
		if pl := ws[mc.words+i]; pl != want {
			t.Errorf("%v: plant %d is %+v, want %+v", mc, i, pl, want)
		}
	}
}

// TestMoveStepGranularity runs every move twice on twin machines, once
// a Step at a time and once through TryRelocate. Each Step must make
// exactly one word access, the last none; and both runs must leave the
// same machine state (memory and timing), journal, shots and span, and
// with an armed injector crash at the same access.
func TestMoveStepGranularity(t *testing.T) {
	hopLimit := sim.New(sim.Config{}).Fwd.HopLimit
	var cases []moveCase
	for chain := 0; chain <= hopLimit+2; chain++ {
		for _, words := range []int{1, 16, 17} {
			cases = append(cases, moveCase{chain: chain, words: words})
		}
	}
	// Every fault at every point and visit, one past the last visit
	// included, on moves around the inline chain-end buffer's size.
	corrupt := map[fault.Point]bool{fault.CopyWrite: true, fault.PlantWrite: true, fault.MemWrite: true}
	for _, chain := range []int{0, 1} {
		for _, words := range []int{1, 16, 17} {
			for _, p := range fault.Points() {
				kinds := []fault.Kind{fault.Crash}
				if corrupt[p] {
					kinds = append(kinds, fault.FlipBit, fault.FBitSet, fault.FBitClear)
				}
				for _, k := range kinds {
					for visit := 1; visit <= lastVisit(p, words)+1; visit++ {
						cases = append(cases, moveCase{chain, words, fault.Shot{Kind: k, Point: p, Visit: visit}})
					}
				}
			}
		}
	}
	var crashed, torn int
	for _, mc := range cases {
		stepped, whole := mc.run(t, true), mc.run(t, false)
		if !reflect.DeepEqual(stepped, whole) {
			t.Fatalf("%v: stepped move differs from TryRelocate:\nstepped %d accesses, err %q, shots %v, journal %+v, spans %+v\nwhole   %d accesses, err %q, shots %v, journal %+v, spans %+v",
				mc, stepped.accesses, stepped.err, stepped.shots, stepped.journal, stepped.spans,
				whole.accesses, whole.err, whole.shots, whole.journal, whole.spans)
		}
		switch {
		case len(stepped.shots) > 0 && stepped.shots[0].Kind == fault.Crash:
			crashed++
		case stepped.err != "":
			torn++
		}
	}
	if crashed == 0 || torn == 0 {
		t.Fatalf("%d crashed and %d torn moves across %d cases; the fault matrix is vacuous", crashed, torn, len(cases))
	}
	t.Logf("%d cases: %d crashed, %d torn", len(cases), crashed, torn)
}

// TestMovePlantRefreshesCopy: guest stores that land between a word's
// copy and its plant, as under a racing relocator hart, reach the copy,
// because each plant step refreshes its copy through the forwarder
// first, and the step still makes the plant write alone.
func TestMovePlantRefreshesCopy(t *testing.T) {
	m := sim.New(sim.Config{LineSize: 128})
	base := m.Malloc(2 * mem.WordSize)
	m.StoreWord(base, 1)
	m.StoreWord(base+8, 2)
	tgt := outOfHeap(m, 2)
	wc := &wordCounter{}
	wc.Interceptor = app.NewInterceptor(m, wc)
	mv := Context{}.NewMove(wc, base, tgt, 2)
	for n := 1; n <= 4; n++ { // the copy phase: a read and a write per word
		if done, err := mv.Step(); done || err != nil {
			t.Fatalf("copy step %d ended the move: %v", n, err)
		}
	}
	m.StoreWord(base, 10)
	m.StoreWord(base+8, 20)
	for n := 1; ; n++ {
		accesses, writes := wc.accesses, len(wc.writes)
		done, err := mv.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if ws := wc.writes[writes:]; wc.accesses-accesses != 1 || len(ws) != 1 || !ws[0].fbit {
			t.Fatalf("plant step %d made %d accesses, writing %+v; want the plant alone", n, wc.accesses-accesses, ws)
		}
	}
	for i, want := range []uint64{10, 20} {
		if got := m.LoadWord(base + wordOff(i)); got != want {
			t.Errorf("word %d reads %d after the move, want %d", i, got, want)
		}
		if got, _ := m.Fwd.UnforwardedRead(tgt + wordOff(i)); got != want {
			t.Errorf("copy %d holds %d, want %d", i, got, want)
		}
	}
}
