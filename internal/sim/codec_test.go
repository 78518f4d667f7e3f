package sim

import (
	"bytes"
	"strings"
	"testing"

	"memfwd/internal/cache"
	"memfwd/internal/core"
	"memfwd/internal/mem"
	"memfwd/internal/wire"
)

// exerciseMachine drives m through enough varied work to populate
// every snapshot field: allocations (some freed, so free stacks fill),
// stores and loads at several sizes, a hand-forged forwarding chain,
// call sites, phases, and plain instructions.
func exerciseMachine(m *Machine) []mem.Addr {
	var blocks []mem.Addr
	site := m.Site("codec_test.alloc")
	m.SetSite(site)
	for i := 0; i < 24; i++ {
		b := m.Malloc(uint64(16 + 8*(i%5)))
		blocks = append(blocks, b)
		m.StoreWord(b, uint64(i)*0x1_0001)
		m.Store32(b+8, uint32(i))
		m.Inst(3)
	}
	for i := 0; i < len(blocks); i += 3 {
		m.Free(blocks[i])
	}
	// Forge a forwarding chain: block 1 forwards to an arena address.
	tgt := mem.Addr(0x6000_0000)
	m.UnforwardedWrite(tgt, m.LoadWord(blocks[1]), false)
	m.UnforwardedWrite(blocks[1], uint64(tgt), true)
	for i := 1; i < len(blocks); i += 2 {
		m.LoadWord(blocks[i])
		m.Load8(blocks[i] + 9)
		m.Inst(2)
	}
	m.PhaseBegin("codec_test.phase")
	return blocks
}

// exerciseHarts runs a little work on every extra hart so the per-hart
// snapshot state is non-trivial.
func exerciseHarts(m *Machine, blocks []mem.Addr) {
	for h := 1; h < m.HartCount(); h++ {
		m.SetHart(h)
		m.StoreWord(blocks[3], uint64(h)<<32)
		m.LoadWord(blocks[5])
		m.Inst(4)
	}
	m.SetHart(0)
}

func codecConfigs() map[string]Config {
	return map[string]Config{
		"default":   {LineSize: 64},
		"tiered":    {LineSize: 32, Tiers: mem.DefaultTierConfig(2, 70)},
		"multihart": {LineSize: 64, Harts: 3},
	}
}

// TestStateCodecRoundTrip is the codec's core contract: encode is
// canonical and decode is exact. For several machine shapes it checks
// that decode(encode(state)) re-encodes to identical bytes, and that a
// machine restored from the decoded state runs an identical
// continuation (same future addresses, values, and stats) as one
// restored from the original in-memory state.
func TestStateCodecRoundTrip(t *testing.T) {
	for name, cfg := range codecConfigs() {
		t.Run(name, func(t *testing.T) {
			m := New(cfg)
			blocks := exerciseMachine(m)
			if m.HartCount() > 1 {
				exerciseHarts(m, blocks)
			}
			st := m.SaveState()

			data, err := EncodeState(st)
			if err != nil {
				t.Fatalf("EncodeState: %v", err)
			}
			st2, err := DecodeState(data)
			if err != nil {
				t.Fatalf("DecodeState: %v", err)
			}
			data2, err := EncodeState(st2)
			if err != nil {
				t.Fatalf("re-EncodeState: %v", err)
			}
			if !bytes.Equal(data, data2) {
				t.Fatalf("re-encode differs: %d vs %d bytes", len(data), len(data2))
			}

			// Continuations from the in-memory state and the decoded
			// state must be indistinguishable.
			a := New(st.Config())
			if err := a.LoadState(st); err != nil {
				t.Fatalf("LoadState(original): %v", err)
			}
			b := New(st2.Config())
			if err := b.LoadState(st2); err != nil {
				t.Fatalf("LoadState(decoded): %v", err)
			}
			for i := 0; i < 8; i++ {
				ba, bb := a.Malloc(48), b.Malloc(48)
				if ba != bb {
					t.Fatalf("continuation alloc %d: %#x vs %#x", i, ba, bb)
				}
				a.StoreWord(ba, uint64(i))
				b.StoreWord(bb, uint64(i))
				if va, vb := a.LoadWord(blocks[1]), b.LoadWord(blocks[1]); va != vb {
					t.Fatalf("continuation load %d: %#x vs %#x", i, va, vb)
				}
			}
			if *a.stats != *b.stats {
				t.Fatalf("continuation stats diverge:\n%+v\n%+v", *a.stats, *b.stats)
			}
			fa, errA := EncodeState(a.SaveState())
			fb, errB := EncodeState(b.SaveState())
			if errA != nil || errB != nil {
				t.Fatalf("continuation encode: %v / %v", errA, errB)
			}
			if !bytes.Equal(fa, fb) {
				t.Fatal("continuation states diverge after identical ops")
			}
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("restored machine invariants: %v", err)
			}
		})
	}
}

// TestStateCodecRejectsDamage: any truncation and any single-byte
// corruption of a valid snapshot must be rejected with an error (the
// frame CRC covers every byte), and must never panic.
func TestStateCodecRejectsDamage(t *testing.T) {
	m := New(Config{LineSize: 64})
	exerciseMachine(m)
	data, err := EncodeState(m.SaveState())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut += 41 {
		if _, err := DecodeState(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for i := 0; i < len(data); i += 97 {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x20
		if _, err := DecodeState(bad); err == nil {
			t.Fatalf("byte flip at %d accepted", i)
		}
	}
}

// TestStateCodecRejectsBadPayload: structural validation must catch
// corruption even when the frame checksum is recomputed over it — the
// defense does not rest on the CRC alone.
func TestStateCodecRejectsBadPayload(t *testing.T) {
	m := New(Config{LineSize: 64})
	exerciseMachine(m)
	data, err := EncodeState(m.SaveState())
	if err != nil {
		t.Fatal(err)
	}
	_, payload, err := wire.OpenFrame(SnapshotMagic, data)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(p []byte)
	}{
		// Config.LineSize is the first field (offset 0, int64): 7 is
		// not a power of two.
		{"bad line size", func(p []byte) { p[0] = 7 }},
		// Config.Harts is the second field: beyond MaxHarts.
		{"bad hart count", func(p []byte) { p[8] = 200 }},
		{"truncated payload", func(p []byte) {}}, // handled below
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := append([]byte(nil), payload...)
			tc.mutate(p)
			if tc.name == "truncated payload" {
				p = p[:len(p)/2]
			}
			reframed := wire.SealFrame(SnapshotMagic, 1, p)
			if _, err := DecodeState(reframed); err == nil {
				t.Fatal("corrupt payload accepted")
			}
		})
	}
	if _, err := DecodeState(wire.SealFrame(SnapshotMagic, 99, payload)); err == nil {
		t.Fatal("unknown version accepted")
	}
}

// TestStateCodecRejectsForeignMainMemory: a decoded state must build
// and load, so a main-memory snapshot whose latency, bus width or line
// size differs from what New builds from the state's config is
// rejected, naming the field. Bus width 0 used to decode and load, then
// divide by zero on the first DRAM access.
func TestStateCodecRejectsForeignMainMemory(t *testing.T) {
	m := New(Config{LineSize: 64})
	exerciseMachine(m)
	st := m.SaveState()
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"latency", Config{LineSize: 64, MemLatency: 90}},
		{"bus width", Config{LineSize: 64, MemBusBytesPerCycle: 4}},
		{"line size", Config{LineSize: 32}},
	} {
		bad := *st
		bad.mm = New(tc.cfg).MM.Snapshot()
		data, err := EncodeState(&bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeState(data); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: decode error %v, want one naming the field", tc.field, err)
		}
	}

	// Bus width 0 no New builds: patch it into the encoded bytes.
	var w wire.Writer
	st.mm.EncodeWire(&w)
	mmBytes := w.Bytes()
	data, err := EncodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	_, payload, err := wire.OpenFrame(SnapshotMagic, data)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(payload, mmBytes)
	if i < 0 || bytes.LastIndex(payload, mmBytes) != i {
		t.Fatal("main-memory snapshot not found once in the payload")
	}
	p := append([]byte(nil), payload...)
	clear(p[i+8 : i+16]) // latency, then bus width
	if _, err := DecodeState(wire.SealFrame(SnapshotMagic, 1, p)); err == nil || !strings.Contains(err.Error(), "bus width") {
		t.Fatalf("bus width 0: decode error %v, want one naming the bus width", err)
	}
}

// TestStateCodecRejectsTooManyMSHRs: New cannot build a level with more
// than cache.MaxMSHRs MSHRs, so a config that asks for one is rejected.
func TestStateCodecRejectsTooManyMSHRs(t *testing.T) {
	st := New(Config{LineSize: 64}).SaveState()
	for _, set := range []func(*Config){
		func(c *Config) { c.L1MSHRs = cache.MaxMSHRs + 1 },
		func(c *Config) { c.L2MSHRs = cache.MaxMSHRs + 1 },
	} {
		bad := *st
		set(&bad.cfg)
		data, err := EncodeState(&bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeState(data); err == nil || !strings.Contains(err.Error(), "MSHRs") {
			t.Errorf("decode error %v, want an MSHR count error", err)
		}
	}
}

// TestStateCodecRejectsImpossibleMixCounters: Inst reloads each
// instruction-mix down-counter when it reaches zero, so a live machine
// holds them in [1, 48] and [1, DepEvery]. A decoded counter outside
// that range, on hart 0 or on any extra hart, is rejected; the range's
// ends decode.
func TestStateCodecRejectsImpossibleMixCounters(t *testing.T) {
	m := New(Config{LineSize: 64, Harts: 3})
	exerciseHarts(m, exerciseMachine(m))
	st := m.SaveState()
	dep := uint32(m.cfg.DepEvery)
	for _, tc := range []struct {
		hart      int
		misp, dep uint32
		ok        bool
	}{
		{0, 0, 1, false}, {0, mispredictEvery + 1, 1, false},
		{0, 1, 0, false}, {0, 1, dep + 1, false},
		{2, 0, 1, false}, {2, 1, dep + 1, false},
		{0, 1, 1, true}, {0, mispredictEvery, dep, true}, {2, mispredictEvery, dep, true},
	} {
		bad := *st
		bad.harts = append([]hartSnap(nil), st.harts...)
		if tc.hart == 0 {
			bad.mispredictCtr, bad.depCtr = tc.misp, tc.dep
		} else {
			bad.harts[tc.hart-1].mispredictCtr, bad.harts[tc.hart-1].depCtr = tc.misp, tc.dep
		}
		data, err := EncodeState(&bad)
		if err != nil {
			t.Fatal(err)
		}
		_, err = DecodeState(data)
		if tc.ok && err != nil {
			t.Errorf("hart %d counters (%d, %d): %v", tc.hart, tc.misp, tc.dep, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "counter")) {
			t.Errorf("hart %d counters (%d, %d): decode error %v, want a counter range error", tc.hart, tc.misp, tc.dep, err)
		}
	}
}

// TestEncodeStateRefusesProcessLocalState: a live trap handler or
// fault injector cannot be serialized and must be reported, not
// silently dropped.
func TestEncodeStateRefusesProcessLocalState(t *testing.T) {
	m := New(Config{LineSize: 64})
	m.SetTrap(func(core.Event) {})
	if _, err := EncodeState(m.SaveState()); err == nil {
		t.Fatal("state with a trap handler encoded")
	}
}

func BenchmarkStateEncode(b *testing.B) {
	m := New(Config{LineSize: 64})
	exerciseMachine(m)
	st := m.SaveState()
	data, err := EncodeState(st)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeState(st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStateDecode(b *testing.B) {
	m := New(Config{LineSize: 64})
	exerciseMachine(m)
	data, err := EncodeState(m.SaveState())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeState(data); err != nil {
			b.Fatal(err)
		}
	}
}
