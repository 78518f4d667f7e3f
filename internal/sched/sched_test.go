package sched_test

import (
	"reflect"
	"testing"

	"memfwd/internal/apps/app"
	"memfwd/internal/fault"
	"memfwd/internal/mem"
	"memfwd/internal/obs"
	"memfwd/internal/oracle"
	"memfwd/internal/sched"
	"memfwd/internal/sim"
)

// lcg drives the synthetic guest workload. Deliberately distinct from
// the scheduler's own generator so the two streams cannot accidentally
// correlate.
type lcg struct{ s uint64 }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s
}

func (l *lcg) intn(n int) int { return int((l.next() >> 33) % uint64(n)) }

// wblock mirrors one live heap block in the workload's memory model.
type wblock struct {
	base mem.Addr
	vals []uint64
}

// workload is the seeded guest mutator with a word-level memory model:
// every load is checked against the model the moment it returns, so a
// relocation that tears a value — or a forwarding word that leaks into
// data space — is caught at the exact racing access, not just in a
// final digest. The operation sequence depends only on the workload
// seed and the model (never on addresses or machine timing), so equal
// seeds drive any two machines through identical guest operation
// streams — the premise the scheduler's determinism contract is tested
// against.
type workload struct {
	t      *testing.T
	rng    lcg
	blocks []wblock
	sum    uint64
	ops    int
}

func newWorkload(t *testing.T, seed uint64) *workload {
	return &workload{t: t, rng: lcg{s: seed}}
}

func (w *workload) run(m app.Machine, n int) {
	for i := 0; i < n; i++ {
		w.ops++
		op := w.rng.intn(100)
		switch {
		case op < 20 || len(w.blocks) == 0: // malloc + init
			words := 2 + w.rng.intn(9)
			val0 := w.rng.next()
			base := m.Malloc(uint64(words) * mem.WordSize)
			if base == 0 {
				w.t.Fatalf("op %d: malloc(%d words) failed", w.ops, words)
			}
			b := wblock{base: base, vals: make([]uint64, words)}
			for j := range b.vals {
				v := val0 + uint64(j)
				m.StoreWord(base+mem.Addr(j)*mem.WordSize, v)
				b.vals[j] = v
			}
			w.blocks = append(w.blocks, b)
		case op < 30 && len(w.blocks) > 4: // free
			k := w.rng.intn(len(w.blocks))
			m.Free(w.blocks[k].base)
			w.blocks[k] = w.blocks[len(w.blocks)-1]
			w.blocks = w.blocks[:len(w.blocks)-1]
		case op < 65: // store
			k := w.rng.intn(len(w.blocks))
			b := &w.blocks[k]
			j := w.rng.intn(len(b.vals))
			v := w.rng.next()
			m.StoreWord(b.base+mem.Addr(j)*mem.WordSize, v)
			b.vals[j] = v
		default: // load, model-checked at the racing access
			k := w.rng.intn(len(w.blocks))
			b := &w.blocks[k]
			j := w.rng.intn(len(b.vals))
			got := m.LoadWord(b.base + mem.Addr(j)*mem.WordSize)
			if got != b.vals[j] {
				w.t.Fatalf("op %d: load %#x word %d = %#x, want %#x (model)",
					w.ops, b.base, j, got, b.vals[j])
			}
			w.sum = w.sum*31 + got
		}
	}
}

// overlapWatch samples the group's in-flight jobs after every guest
// data operation and counts the points at which a faulted job was in
// flight beside another job, and beside another faulted job.
type overlapWatch struct {
	app.Interceptor
	g                   *sched.Group
	beside, bothFaulted int
}

func watchOverlap(g *sched.Group) *overlapWatch {
	w := &overlapWatch{g: g}
	w.Interceptor = app.NewInterceptor(g, w)
	return w
}

func (w *overlapWatch) sample() {
	jobs, faulted := w.g.InFlight()
	if faulted > 0 && jobs > 1 {
		w.beside++
	}
	if faulted > 1 {
		w.bothFaulted++
	}
}

func (w *overlapWatch) Load(a mem.Addr, size uint) uint64 {
	v := w.Machine.Load(a, size)
	w.sample()
	return v
}

func (w *overlapWatch) Store(a mem.Addr, v uint64, size uint) {
	w.Machine.Store(a, v, size)
	w.sample()
}

func (w *overlapWatch) Malloc(n uint64) mem.Addr {
	a := w.Machine.Malloc(n)
	w.sample()
	return a
}

func (w *overlapWatch) Free(a mem.Addr) {
	w.Machine.Free(a)
	w.sample()
}

func digestOf(t *testing.T, m app.Machine) uint64 {
	t.Helper()
	d, err := oracle.DigestModuloForwarding(m.Memory(), m.Forwarder(), m.Allocator())
	if err != nil {
		t.Fatalf("digest: %v", err)
	}
	return d
}

// baseline runs the workload on a bare oracle machine — no scheduler,
// no relocation — and returns its checksum and heap digest: the serial
// reference every scheduled run must be indistinguishable from.
func baseline(t *testing.T, seed uint64, ops int) (sum, dig uint64) {
	om := oracle.New(oracle.Config{})
	w := newWorkload(t, seed)
	w.run(om, ops)
	return w.sum, digestOf(t, om)
}

// TestNewValidation: bad hart counts are errors, never panics — the
// CLI and the session server surface them as usage errors / HTTP 400.
func TestNewValidation(t *testing.T) {
	for _, harts := range []int{0, -1, -64} {
		if _, err := sched.New(oracle.New(oracle.Config{}), sched.Config{Harts: harts}); err == nil {
			t.Errorf("New(harts=%d) accepted a non-positive hart count", harts)
		}
	}
	// Requesting more harts than the timing machine was built with is
	// an error too.
	m := sim.New(sim.Config{Harts: 2})
	if _, err := sched.New(m, sched.Config{Harts: 4, Seed: 1}); err == nil {
		t.Error("New(harts=4) accepted a 2-hart machine")
	}
	g, err := sched.New(m, sched.Config{Harts: 2, Seed: 1})
	if err != nil {
		t.Fatalf("New(harts=2) on a 2-hart machine: %v", err)
	}
	g.Close()
	// The functional oracle has no per-hart timing, so any count works.
	g2, err := sched.New(oracle.New(oracle.Config{}), sched.Config{Harts: 8, Seed: 1})
	if err != nil {
		t.Fatalf("New(harts=8) on the oracle: %v", err)
	}
	g2.Close()
}

// TestTransparentAtOneHart: a 1-hart group schedules nothing and is a
// transparent wrapper — same checksum, same digest, zero accounting.
func TestTransparentAtOneHart(t *testing.T) {
	const seed, ops = 21, 4000
	wantSum, wantDig := baseline(t, seed, ops)

	om := oracle.New(oracle.Config{})
	g, err := sched.New(om, sched.Config{Harts: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	w := newWorkload(t, seed)
	w.run(g, ops)
	g.Quiesce()
	if w.sum != wantSum {
		t.Errorf("checksum %#x, want %#x", w.sum, wantSum)
	}
	if d := digestOf(t, g); d != wantDig {
		t.Errorf("digest %#x, want %#x", d, wantDig)
	}
	if g.Stats() != (sched.Stats{}) {
		t.Errorf("1-hart group accumulated stats: %+v", g.Stats())
	}
}

// TestConcurrentRelocationSafety is the memory-model oracle over
// relocate-vs-mutate races: relocator harts race the guest's loads and
// stores at word granularity, every load is checked against the model
// at the racing access, and the final heap must digest identically to
// the serial no-relocation execution — across hart counts and seeds.
func TestConcurrentRelocationSafety(t *testing.T) {
	const seed, ops = 77, 6000
	wantSum, wantDig := baseline(t, seed, ops)
	for _, harts := range []int{2, 4} {
		for schedSeed := int64(1); schedSeed <= 4; schedSeed++ {
			om := oracle.New(oracle.Config{})
			g, err := sched.New(om, sched.Config{Harts: harts, Seed: schedSeed, Interval: 8})
			if err != nil {
				t.Fatal(err)
			}
			w := newWorkload(t, seed)
			w.run(g, ops)
			g.Quiesce()
			st := g.Stats()
			if w.sum != wantSum {
				t.Errorf("harts=%d seed=%d: checksum %#x, want %#x", harts, schedSeed, w.sum, wantSum)
			}
			if d := digestOf(t, g); d != wantDig {
				t.Errorf("harts=%d seed=%d: digest %#x, want %#x", harts, schedSeed, d, wantDig)
			}
			if err := oracle.CheckForwarding(om.Mem, om.Fwd); err != nil {
				t.Errorf("harts=%d seed=%d: forwarding invariants: %v", harts, schedSeed, err)
			}
			if st.Relocations == 0 {
				t.Errorf("harts=%d seed=%d: no concurrent relocations committed; test is vacuous", harts, schedSeed)
			}
			g.Close()
		}
	}
}

// TestScheduleDeterminism: equal seeds over equal guest operation
// sequences replay identical interleavings — identical accounting —
// and *different* seeds still converge to the same guest-visible
// behaviour.
func TestScheduleDeterminism(t *testing.T) {
	const seed, ops = 5, 5000
	type outcome struct {
		sum, dig uint64
		st       sched.Stats
	}
	once := func(schedSeed int64) outcome {
		om := oracle.New(oracle.Config{})
		g, err := sched.New(om, sched.Config{Harts: 4, Seed: schedSeed, Interval: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		w := newWorkload(t, seed)
		w.run(g, ops)
		g.Quiesce()
		return outcome{sum: w.sum, dig: digestOf(t, g), st: g.Stats()}
	}
	a, b := once(11), once(11)
	if a.sum != b.sum || a.dig != b.dig {
		t.Errorf("same seed diverged: (%#x, %#x) vs (%#x, %#x)", a.sum, a.dig, b.sum, b.dig)
	}
	if a.st != b.st {
		t.Errorf("same seed, different accounting: %+v vs %+v", a.st, b.st)
	}
	c := once(12)
	if c.st == a.st {
		t.Log("seeds 11 and 12 happened to schedule identically (not an error)")
	}
	if c.sum != a.sum || c.dig != a.dig {
		t.Errorf("guest-visible behaviour depends on the scheduling seed: (%#x, %#x) vs (%#x, %#x)",
			c.sum, c.dig, a.sum, a.dig)
	}
}

// TestDifferentialUnderSchedule runs the timing simulator and the
// functional oracle under the *same* schedule: the scheduler's
// decisions derive only from its seed, the guest operation stream, and
// functional job progress, so equal-seeded groups over the two machines
// must interleave identically and agree on every guest-visible value.
func TestDifferentialUnderSchedule(t *testing.T) {
	const seed, ops = 33, 5000
	run := func(inner app.Machine) (uint64, uint64, sched.Stats) {
		g, err := sched.New(inner, sched.Config{Harts: 3, Seed: 9, Interval: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		w := newWorkload(t, seed)
		w.run(g, ops)
		g.Quiesce()
		return w.sum, digestOf(t, g), g.Stats()
	}
	sm := sim.New(sim.Config{Harts: 3})
	spans := obs.NewSpanTable(1 << 16)
	sm.SetSpans(spans)
	simSum, simDig, simSt := run(sm)
	sm.Finalize()
	om := oracle.New(oracle.Config{})
	oraSum, oraDig, oraSt := run(om)

	if simSum != oraSum {
		t.Errorf("checksums diverged: sim %#x, oracle %#x", simSum, oraSum)
	}
	if simDig != oraDig {
		t.Errorf("digests diverged: sim %#x, oracle %#x", simDig, oraDig)
	}
	if simSt != oraSt {
		t.Errorf("schedules diverged: sim %+v, oracle %+v", simSt, oraSt)
	}
	if simSt.Relocations == 0 {
		t.Error("no concurrent relocations committed; test is vacuous")
	}
	// Every hart job lands in the machine's span table, labelled by the
	// hart that ran it (the guest relocates nothing here).
	if committed, _, _ := spans.Outcomes(); committed != uint64(simSt.Relocations) {
		t.Errorf("%d committed spans, want one per hart job (%d)", committed, simSt.Relocations)
	}
	byHart := map[int]int{}
	for _, sp := range spans.Spans() {
		byHart[sp.Hart]++
	}
	if len(byHart) != 2 || byHart[1] == 0 || byHart[2] == 0 {
		t.Errorf("spans by hart %v, want harts 1 and 2 only", byHart)
	}
	if err := oracle.CheckMachine(sm); err != nil {
		t.Errorf("sim invariants: %v", err)
	}
	if err := oracle.CheckForwarding(om.Mem, om.Fwd); err != nil {
		t.Errorf("oracle invariants: %v", err)
	}
}

// TestCrashConsistencyUnderContention enumerates crashes at every
// boundary point of a *contended* relocation — one racing guest loads
// and stores — and demands the scavenger roll the heap forward to a
// state digest-identical to the serial no-relocation execution. "No
// third state" under concurrency. The armed job launches whatever else
// is in flight, so at harts=4 crashes also strike beside other jobs.
func TestCrashConsistencyUnderContention(t *testing.T) {
	const seed, ops = 99, 4000
	wantSum, wantDig := baseline(t, seed, ops)
	points := []fault.Point{
		fault.RelocateBegin, fault.RelocateCopied, fault.RelocateVerify,
		fault.RelocatePlant, fault.RelocateEnd,
	}
	for _, harts := range []int{2, 4} {
		crashes, scavenges, beside := 0, 0, 0
		for _, p := range points {
			for visit := 1; visit <= 3; visit++ {
				om := oracle.New(oracle.Config{})
				g, err := sched.New(om, sched.Config{Harts: harts, Seed: 13, Interval: 8})
				if err != nil {
					t.Fatal(err)
				}
				g.InjectNext(fault.Crash, p, visit)
				w := newWorkload(t, seed)
				ow := watchOverlap(g)
				w.run(ow, ops)
				beside += ow.beside
				g.Quiesce()
				st := g.Stats()
				if w.sum != wantSum {
					t.Errorf("harts=%d crash@%v:%d: checksum %#x, want %#x", harts, p, visit, w.sum, wantSum)
				}
				if d := digestOf(t, g); d != wantDig {
					t.Errorf("harts=%d crash@%v:%d: digest %#x, want %#x", harts, p, visit, d, wantDig)
				}
				if err := oracle.CheckForwarding(om.Mem, om.Fwd); err != nil {
					t.Errorf("harts=%d crash@%v:%d: forwarding invariants: %v", harts, p, visit, err)
				}
				if st.Faulted == 0 {
					t.Errorf("harts=%d crash@%v:%d: the armed job never launched", harts, p, visit)
				}
				crashes += st.Crashes
				scavenges += st.Scavenges
				g.Close()
			}
		}
		// Individual (point, visit) pairs may legitimately never fire
		// (a visit count beyond the job's word count), but across the
		// enumeration real crashes — and journal roll-forwards — must
		// have happened, or the test proves nothing.
		if crashes == 0 || scavenges == 0 {
			t.Errorf("harts=%d: %d crashes, %d scavenges across the enumeration; test is vacuous",
				harts, crashes, scavenges)
		}
		t.Logf("harts=%d: %d crashes, %d scavenges, %d points with an armed job beside another", harts, crashes, scavenges, beside)
		if harts > 2 && beside == 0 {
			t.Errorf("harts=%d: no armed job was ever in flight beside another job", harts)
		}
	}
}

// TestRandomFaultedSchedule drives the repertoire the chaos harness
// uses (EnableFaults: roughly a quarter of jobs crash at seeded
// boundary points) across several seeds, as a broader sweep behind the
// exhaustive enumeration above. Faulted jobs overlap each other: each
// carries its own injector and journal.
func TestRandomFaultedSchedule(t *testing.T) {
	const seed, ops = 55, 6000
	wantSum, wantDig := baseline(t, seed, ops)
	var crashes, bothFaulted int
	for schedSeed := int64(1); schedSeed <= 6; schedSeed++ {
		om := oracle.New(oracle.Config{})
		g, err := sched.New(om, sched.Config{Harts: 4, Seed: schedSeed, Interval: 8})
		if err != nil {
			t.Fatal(err)
		}
		g.EnableFaults()
		w := newWorkload(t, seed)
		ow := watchOverlap(g)
		w.run(ow, ops)
		bothFaulted += ow.bothFaulted
		g.Quiesce()
		if w.sum != wantSum {
			t.Errorf("seed=%d: checksum %#x, want %#x", schedSeed, w.sum, wantSum)
		}
		if d := digestOf(t, g); d != wantDig {
			t.Errorf("seed=%d: digest %#x, want %#x", schedSeed, d, wantDig)
		}
		if err := oracle.CheckForwarding(om.Mem, om.Fwd); err != nil {
			t.Errorf("seed=%d: forwarding invariants: %v", schedSeed, err)
		}
		crashes += g.Stats().Crashes
		g.Close()
	}
	if crashes == 0 {
		t.Error("no crashes fired across six faulted seeds; test is vacuous")
	}
	t.Logf("%d crashes, %d points with two faulted jobs in flight", crashes, bothFaulted)
	if bothFaulted == 0 {
		t.Error("no two faulted jobs were ever in flight together across six seeds")
	}
}

// TestSnapshotRestoreMidSchedule: a multi-hart machine saved
// mid-schedule (quiesced, so no relocation is half planted) restores
// and re-saves byte-identically.
func TestSnapshotRestoreMidSchedule(t *testing.T) {
	cfg := sim.Config{Harts: 2}
	m1 := sim.New(cfg)
	g1, err := sched.New(m1, sched.Config{Harts: 2, Seed: 3, Interval: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer g1.Close()
	newWorkload(t, 42).run(g1, 3000)
	g1.Quiesce()
	st := m1.SaveState()

	m2 := sim.New(cfg)
	if err := m2.LoadState(st); err != nil {
		t.Fatal(err)
	}
	if st2 := m2.SaveState(); !reflect.DeepEqual(st, st2) {
		t.Error("restored machine does not re-save byte-identically")
	}
}

// TestFreeDrainsConflictingJob: freeing a block mid-relocation must not
// leave a job planting into freed memory — the group drains the
// conflicting job first. The workload above frees constantly, so this
// is exercised implicitly; here a group at maximum launch pressure
// frees every block it allocates immediately after a burst of traffic.
func TestFreeDrainsConflictingJob(t *testing.T) {
	om := oracle.New(oracle.Config{})
	g, err := sched.New(om, sched.Config{Harts: 4, Seed: 17, Interval: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i := 0; i < 400; i++ {
		b := g.Malloc(8 * 8)
		for j := 0; j < 8; j++ {
			g.StoreWord(b+mem.Addr(j)*mem.WordSize, uint64(i*8+j))
		}
		for j := 0; j < 8; j++ {
			if got := g.LoadWord(b + mem.Addr(j)*mem.WordSize); got != uint64(i*8+j) {
				t.Fatalf("block %d word %d: got %d", i, j, got)
			}
		}
		g.Free(b)
	}
	g.Quiesce()
	if err := oracle.CheckForwarding(om.Mem, om.Fwd); err != nil {
		t.Errorf("forwarding invariants: %v", err)
	}
}
