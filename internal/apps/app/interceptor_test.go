package app

import (
	"testing"

	"memfwd/internal/mem"
	"memfwd/internal/sim"
)

// access is one reference a recording wrapper saw.
type access struct {
	store bool
	addr  mem.Addr
	v     uint64
	size  uint
}

// recorder hooks only Load and Store. Its Load returns a fixed value
// with every byte distinct, so a sized accessor that truncates wrongly
// returns the wrong bytes.
type recorder struct {
	Interceptor
	seen []access
}

const loadPattern = 0xF1E2_D3C4_B5A6_9788

func newRecorder(inner Machine) *recorder {
	r := &recorder{}
	r.Interceptor = NewInterceptor(inner, r)
	return r
}

func (r *recorder) Load(a mem.Addr, size uint) uint64 {
	r.seen = append(r.seen, access{addr: a, size: size})
	return loadPattern
}

func (r *recorder) Store(a mem.Addr, v uint64, size uint) {
	r.seen = append(r.seen, access{store: true, addr: a, v: v, size: size})
}

// TestInterceptorSizedAccessors: each of the ten sized accessors
// reaches the wrapper's Load or Store exactly once, with its own size,
// the stored value zero-extended and the loaded value truncated.
func TestInterceptorSizedAccessors(t *testing.T) {
	const a = mem.Addr(0x1000)
	cases := []struct {
		name string
		call func(m Machine) uint64 // loads return the accessor's result
		want access
		got  uint64
	}{
		{"LoadWord", func(m Machine) uint64 { return m.LoadWord(a) }, access{addr: a, size: 8}, loadPattern},
		{"LoadPtr", func(m Machine) uint64 { return uint64(m.LoadPtr(a)) }, access{addr: a, size: 8}, loadPattern},
		{"Load32", func(m Machine) uint64 { return uint64(m.Load32(a)) }, access{addr: a, size: 4}, loadPattern & 0xFFFF_FFFF},
		{"Load16", func(m Machine) uint64 { return uint64(m.Load16(a)) }, access{addr: a, size: 2}, loadPattern & 0xFFFF},
		{"Load8", func(m Machine) uint64 { return uint64(m.Load8(a)) }, access{addr: a, size: 1}, loadPattern & 0xFF},
		{"StoreWord", func(m Machine) uint64 { m.StoreWord(a, 0x0102_0304_0506_0708); return 0 },
			access{store: true, addr: a, v: 0x0102_0304_0506_0708, size: 8}, 0},
		{"StorePtr", func(m Machine) uint64 { m.StorePtr(a, 0x2000); return 0 },
			access{store: true, addr: a, v: 0x2000, size: 8}, 0},
		{"Store32", func(m Machine) uint64 { m.Store32(a, 0xFFFF_FFFE); return 0 },
			access{store: true, addr: a, v: 0xFFFF_FFFE, size: 4}, 0},
		{"Store16", func(m Machine) uint64 { m.Store16(a, 0xFFFD); return 0 },
			access{store: true, addr: a, v: 0xFFFD, size: 2}, 0},
		{"Store8", func(m Machine) uint64 { m.Store8(a, 0xFC); return 0 },
			access{store: true, addr: a, v: 0xFC, size: 1}, 0},
	}
	for _, c := range cases {
		r := newRecorder(sim.New(sim.Config{}))
		if got := c.call(r); got != c.got {
			t.Errorf("%s returned %#x, want %#x", c.name, got, c.got)
		}
		if len(r.seen) != 1 || r.seen[0] != c.want {
			t.Errorf("%s reached the wrapper as %+v, want exactly [%+v]", c.name, r.seen, c.want)
		}
	}
}

// TestInterceptorDelegates: methods the wrapper does not define reach
// the inner machine, and calls through the embedded Machine bypass the
// wrapper's hooks.
func TestInterceptorDelegates(t *testing.T) {
	inner := sim.New(sim.Config{})
	r := newRecorder(inner)
	var m Machine = r
	if m.Allocator() != inner.Alloc || m.Memory() != inner.Mem || m.Forwarder() != inner.Fwd {
		t.Fatal("substrate accessors do not reach the inner machine")
	}
	if m.LineSize() != inner.LineSize() {
		t.Fatalf("LineSize %d, inner %d", m.LineSize(), inner.LineSize())
	}
	p := m.Malloc(64)
	if !inner.Alloc.Live(p) {
		t.Fatalf("Malloc through the wrapper did not allocate on the inner machine")
	}
	m.UnforwardedWrite(p, 42, false)
	if v, fb := inner.UnforwardedRead(p); v != 42 || fb {
		t.Fatalf("UnforwardedWrite through the wrapper: inner reads %d (fbit %v)", v, fb)
	}
	m.Inst(10)
	if st := inner.Finalize(); st.Instructions < 10 {
		t.Fatalf("Inst through the wrapper: inner graduated %d instructions", st.Instructions)
	}
	r.Machine.StoreWord(p, 7)
	if got := r.Machine.LoadWord(p); got != 7 || len(r.seen) != 0 {
		t.Fatalf("inner-machine calls read %d and reached the wrapper %d times, want 7 and 0", got, len(r.seen))
	}
	if r.Unwrap() != Machine(inner) {
		t.Fatal("Unwrap does not return the inner machine")
	}
}

// tagged is a wrapper that carries a capability of its own.
type tagged struct {
	Interceptor
	tag string
}

func (t *tagged) Tag() string { return t.tag }

type tagger interface{ Tag() string }

func newTagged(inner Machine, tag string) *tagged {
	t := &tagged{tag: tag}
	t.Interceptor = NewInterceptor(inner, t)
	return t
}

// opaque embeds the inner machine without an Interceptor, so it has no
// Unwrap: As must not see through it.
type opaque struct{ Machine }

type clock interface{ Now() int64 }

// TestAs: As returns the outermost implementor, walks several layers
// to reach one, and stops at a machine with no Unwrap.
func TestAs(t *testing.T) {
	inner := sim.New(sim.Config{})
	chain := newRecorder(newTagged(newRecorder(newTagged(newRecorder(inner), "low")), "high"))

	if tg, ok := As[tagger](chain); !ok || tg.Tag() != "high" {
		t.Fatalf("As[tagger] = %v, %v; want the outermost implementor (high)", tg, ok)
	}
	if c, ok := As[clock](chain); !ok || c != clock(inner) {
		t.Fatalf("As[clock] = %v, %v; want the leaf machine five layers down", c, ok)
	}
	if r, ok := As[*recorder](chain); !ok || r != chain {
		t.Fatal("As does not return the outermost machine itself when it implements T")
	}

	sealed := newRecorder(opaque{newTagged(inner, "hidden")})
	if _, ok := As[tagger](sealed); ok {
		t.Fatal("As walked through a machine with no Unwrap")
	}
	if _, ok := As[clock](sealed); ok {
		t.Fatal("As reached the leaf through a machine with no Unwrap")
	}
	if _, ok := As[clock](nil); ok {
		t.Fatal("As on a nil machine reported a capability")
	}
}
