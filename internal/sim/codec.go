package sim

// Binary codec for MachineState: the serialized form behind the serve
// plane's durable session store. The encoding is canonical (encoding
// equal states yields identical bytes) and round-trip exact — decode
// rebuilds a MachineState whose LoadState continuation is
// byte-identical to the source machine's. The whole payload travels
// inside a wire file frame (magic + version + CRC32-C), so torn or
// flipped bytes are rejected before field decoding even starts, and
// every structural invariant is re-validated during decode so a
// corrupt-but-CRC-valid input still comes back as an error, never a
// panic or a malformed machine.
//
// Two MachineState fields cannot be serialized and make EncodeState
// fail: a non-nil trap handler and a non-nil fault injector are live
// process-local values (a Go closure and a hook-wired injector).
// Serve sessions install neither, so every session state is encodable.

import (
	"errors"
	"fmt"
	"sort"

	"memfwd/internal/addrtab"
	"memfwd/internal/cache"
	"memfwd/internal/cpu"
	"memfwd/internal/mem"
	"memfwd/internal/wire"
)

// SnapshotMagic identifies a serialized MachineState file frame.
const SnapshotMagic = "MFWDSNAP"

// snapshotVersion is bumped on any incompatible layout change.
const snapshotVersion = 1

// maxProvCap bounds a decoded provenance table's slot count; beyond
// this a length is treated as corruption, not an allocation request.
const maxProvCap = 1 << 26

// EncodeState serializes st into a self-validating file frame.
func EncodeState(st *MachineState) ([]byte, error) {
	if st.trap != nil {
		return nil, errors.New("sim: cannot encode a state with a live trap handler")
	}
	if st.faultInj != nil {
		return nil, errors.New("sim: cannot encode a state with a fault injector installed")
	}
	var w wire.Writer
	encodeConfig(&w, st.cfg)
	st.mem.EncodeWire(&w)
	st.alloc.EncodeWire(&w)
	w.Int(st.fwd.HopLimit)
	w.Int(st.fwd.ChainCap)
	w.U64(st.fwd.CycleFalseAlarms)
	w.U64(st.fwd.CyclesDetected)
	w.Int(st.fwd.MaxChain)
	st.l1.EncodeWire(&w)
	st.l2.EncodeWire(&w)
	st.mm.EncodeWire(&w)
	st.pipe.EncodeWire(&w)
	encodeStrings(&w, st.sites)
	w.Int(st.curSite)
	w.U32(st.mispredictCtr)
	w.U32(st.depCtr)
	encodeProv(&w, &st.prov)
	w.Int(st.provLimit)
	encodeStrings(&w, st.phases)
	w.U64(st.sampleEvery)
	w.U64(st.sampleNext)
	encodeStats(&w, &st.samplePrev)
	encodeStats(&w, &st.stats)
	w.Bool(st.finalized)
	w.U32(uint32(len(st.harts)))
	for i := range st.harts {
		h := &st.harts[i]
		h.pipe.EncodeWire(&w)
		h.l1.EncodeWire(&w)
		h.l2.EncodeWire(&w)
		w.U32(h.mispredictCtr)
		w.U32(h.depCtr)
		encodeProv(&w, &h.prov)
		encodeStats(&w, &h.stats)
	}
	w.U64(st.cohInvL1)
	w.U64(st.cohInvL2)
	return wire.SealFrame(SnapshotMagic, snapshotVersion, w.Bytes()), nil
}

// DecodeState deserializes a frame produced by EncodeState, validating
// framing, checksum, and every structural invariant. On success,
// sim.New(st.Config()) cannot panic and LoadState into it succeeds.
func DecodeState(data []byte) (st *MachineState, err error) {
	version, payload, err := wire.OpenFrame(SnapshotMagic, data)
	if err != nil {
		return nil, fmt.Errorf("sim: decode state: %w", err)
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("sim: snapshot version %d, want %d", version, snapshotVersion)
	}
	r := wire.NewReader(payload)
	st = &MachineState{}
	st.cfg = decodeConfig(r)
	if r.Err() != nil {
		return nil, fmt.Errorf("sim: decode state: %w", r.Err())
	}
	st.mem = mem.DecodeMemorySnapshot(r)
	st.alloc = mem.DecodeAllocatorSnapshot(r)
	st.fwd.HopLimit = r.Int()
	st.fwd.ChainCap = r.Int()
	st.fwd.CycleFalseAlarms = r.U64()
	st.fwd.CyclesDetected = r.U64()
	st.fwd.MaxChain = r.Int()
	st.l1 = cache.DecodeCacheSnapshot(r)
	st.l2 = cache.DecodeCacheSnapshot(r)
	st.mm = cache.DecodeMainMemorySnapshot(r)
	st.pipe = cpu.DecodePipelineSnapshot(r)
	st.sites = decodeStrings(r)
	st.curSite = r.Int()
	if r.Err() == nil && (len(st.sites) < 1 || st.curSite < 0 || st.curSite >= len(st.sites)) {
		return nil, fmt.Errorf("sim: decode state: curSite %d outside %d sites", st.curSite, len(st.sites))
	}
	st.mispredictCtr = r.U32()
	st.depCtr = r.U32()
	st.prov = decodeProv(r)
	st.provLimit = r.Int()
	if r.Err() == nil && st.provLimit < 1 {
		return nil, fmt.Errorf("sim: decode state: provLimit %d invalid", st.provLimit)
	}
	st.phases = decodeStrings(r)
	st.sampleEvery = r.U64()
	st.sampleNext = r.U64()
	st.samplePrev = decodeStats(r)
	st.stats = decodeStats(r)
	st.finalized = r.Bool()
	nHarts := r.Count(1)
	if r.Err() == nil && nHarts != st.cfg.Harts-1 {
		return nil, fmt.Errorf("sim: decode state: %d extra harts, config says %d", nHarts, st.cfg.Harts-1)
	}
	st.harts = make([]hartSnap, nHarts)
	for i := range st.harts {
		h := &st.harts[i]
		h.pipe = cpu.DecodePipelineSnapshot(r)
		h.l1 = cache.DecodeCacheSnapshot(r)
		h.l2 = cache.DecodeCacheSnapshot(r)
		h.mispredictCtr = r.U32()
		h.depCtr = r.U32()
		h.prov = decodeProv(r)
		h.stats = decodeStats(r)
		if r.Err() != nil {
			return nil, fmt.Errorf("sim: decode state: hart %d: %w", i+1, r.Err())
		}
	}
	st.cohInvL1 = r.U64()
	st.cohInvL2 = r.U64()
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("sim: decode state: %w", err)
	}
	return st, nil
}

func encodeConfig(w *wire.Writer, cfg Config) {
	w.Int(cfg.LineSize)
	w.Int(cfg.Harts)
	w.Int(cfg.L1Size)
	w.Int(cfg.L1Assoc)
	w.Int(cfg.L1MSHRs)
	w.Int(cfg.L2Size)
	w.Int(cfg.L2Assoc)
	w.Int(cfg.L2MSHRs)
	w.I64(cfg.L1HitLat)
	w.I64(cfg.L2HitLat)
	w.I64(cfg.MemLatency)
	w.Int(cfg.MemBusBytesPerCycle)
	w.Int(cfg.FillBytesPerCycle)
	w.Int(cfg.CPU.Width)
	w.Int(cfg.CPU.ROB)
	w.Int(cfg.CPU.StoreBuffer)
	w.I64(cfg.CPU.DepPenalty)
	w.I64(cfg.PerHopCost)
	w.Int(cfg.TrapOverheadInst)
	w.Bool(cfg.PerfectForwarding)
	w.Int(cfg.DepEvery)
	w.I64(cfg.DepLat)
	w.U64(uint64(cfg.HeapBase))
	w.U64(cfg.HeapLimit)
	if cfg.Tiers == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.U32(uint32(len(cfg.Tiers.Latencies)))
	for _, l := range cfg.Tiers.Latencies {
		w.I64(l)
	}
	w.U32(uint32(len(cfg.Tiers.Capacities)))
	for _, c := range cfg.Tiers.Capacities {
		w.U64(c)
	}
}

// decodeConfig reads a Config and validates that handing it to New
// cannot panic: it must already be in normalized (defaulted) form —
// every saved config is, because SaveState captures the machine's
// effective config — with valid cache geometry, hart count, heap
// alignment, and tier spec.
func decodeConfig(r *wire.Reader) Config {
	var cfg Config
	cfg.LineSize = r.Int()
	cfg.Harts = r.Int()
	cfg.L1Size = r.Int()
	cfg.L1Assoc = r.Int()
	cfg.L1MSHRs = r.Int()
	cfg.L2Size = r.Int()
	cfg.L2Assoc = r.Int()
	cfg.L2MSHRs = r.Int()
	cfg.L1HitLat = r.I64()
	cfg.L2HitLat = r.I64()
	cfg.MemLatency = r.I64()
	cfg.MemBusBytesPerCycle = r.Int()
	cfg.FillBytesPerCycle = r.Int()
	cfg.CPU.Width = r.Int()
	cfg.CPU.ROB = r.Int()
	cfg.CPU.StoreBuffer = r.Int()
	cfg.CPU.DepPenalty = r.I64()
	cfg.PerHopCost = r.I64()
	cfg.TrapOverheadInst = r.Int()
	cfg.PerfectForwarding = r.Bool()
	cfg.DepEvery = r.Int()
	cfg.DepLat = r.I64()
	cfg.HeapBase = mem.Addr(r.U64())
	cfg.HeapLimit = r.U64()
	if r.Bool() {
		t := &mem.TierConfig{}
		nl := r.Count(8)
		t.Latencies = make([]int64, nl)
		for i := range t.Latencies {
			t.Latencies[i] = r.I64()
		}
		nc := r.Count(8)
		t.Capacities = make([]uint64, nc)
		for i := range t.Capacities {
			t.Capacities[i] = r.U64()
		}
		if r.Err() == nil {
			if err := mem.ValidateTierConfig(t); err != nil {
				r.Fail(err)
				return cfg
			}
		}
		cfg.Tiers = t
	}
	if r.Err() != nil {
		return cfg
	}
	if cfg != cfg.withDefaults() {
		r.Failf("sim: config not in normalized form: %+v", cfg)
		return cfg
	}
	if cfg.Harts > MaxHarts {
		r.Failf("sim: config Harts %d exceeds maximum %d", cfg.Harts, MaxHarts)
		return cfg
	}
	if err := validateCacheGeometry("L1", cfg.L1Size, cfg.LineSize, cfg.L1Assoc); err != nil {
		r.Fail(err)
		return cfg
	}
	if err := validateCacheGeometry("L2", cfg.L2Size, cfg.LineSize, cfg.L2Assoc); err != nil {
		r.Fail(err)
		return cfg
	}
	if cfg.HeapBase&mem.WordMask != 0 {
		r.Failf("sim: config heap base %#x not word-aligned", cfg.HeapBase)
	}
	return cfg
}

// validateCacheGeometry mirrors cache.New's construction panics as
// errors, checking divisors before dividing.
func validateCacheGeometry(name string, size, lineSize, assoc int) error {
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		return fmt.Errorf("sim: config %s line size %d not a positive power of two", name, lineSize)
	}
	if size <= 0 || assoc <= 0 {
		return fmt.Errorf("sim: config %s geometry size=%d assoc=%d invalid", name, size, assoc)
	}
	nLines := size / lineSize
	if nLines <= 0 || nLines%assoc != 0 {
		return fmt.Errorf("sim: config %s %d lines not divisible into %d ways", name, nLines, assoc)
	}
	if nSets := nLines / assoc; nSets&(nSets-1) != 0 {
		return fmt.Errorf("sim: config %s set count %d not a power of two", name, nSets)
	}
	return nil
}

func encodeStrings(w *wire.Writer, ss []string) {
	w.U32(uint32(len(ss)))
	for _, s := range ss {
		w.String(s)
	}
}

func decodeStrings(r *wire.Reader) []string {
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.String()
	}
	return ss
}

// encodeProv emits the provenance table as its slot capacity plus the
// live entries sorted by key. Sorting makes the encoding canonical:
// the in-memory slot layout depends on insertion history, but layout
// never affects lookups, sweeps, or timing, so only the entry set is
// state worth carrying.
func encodeProv(w *wire.Writer, t *provTable) {
	w.Int(t.Cap())
	keys := make([]uint64, 0, t.Len())
	t.Each(func(k uint64, _ ptrEntry) { keys = append(keys, k) })
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		e, _ := t.Get(k)
		w.U64(k)
		w.U64(e.base)
		w.I64(e.ready)
	}
}

// decodeProv rebuilds a provenance table by reinserting the sorted
// entries. The load-factor check guarantees the rebuild never grows
// the table, so the capacity (and therefore the re-encoded bytes)
// round-trips exactly.
func decodeProv(r *wire.Reader) provTable {
	capSlots := r.Int()
	if r.Err() != nil {
		return provTable{}
	}
	if capSlots < 8 || capSlots > maxProvCap || capSlots&(capSlots-1) != 0 {
		r.Failf("sim: provenance capacity %d invalid", capSlots)
		return provTable{}
	}
	n := r.Count(24)
	if r.Err() == nil && 4*n > 3*capSlots {
		r.Failf("sim: %d provenance entries overfill %d slots", n, capSlots)
		return provTable{}
	}
	t := addrtab.New[ptrEntry](capSlots / 2) // exactly capSlots slots
	prev := uint64(0)
	for i := 0; i < n; i++ {
		k := r.U64()
		if r.Err() != nil {
			return t
		}
		if i > 0 && k <= prev {
			r.Failf("sim: provenance keys out of order (%#x after %#x)", k, prev)
			return t
		}
		if k+1 == 0 {
			r.Failf("sim: provenance key %#x out of range", k)
			return t
		}
		prev = k
		t.Put(k, ptrEntry{base: r.U64(), ready: r.I64()})
	}
	return t
}

func encodeStats(w *wire.Writer, s *Stats) {
	w.I64(s.Cycles)
	for _, v := range s.Slots {
		w.U64(v)
	}
	w.U64(s.Instructions)
	w.U64(s.Loads)
	w.U64(s.Stores)
	cache.EncodeStats(w, &s.L1)
	cache.EncodeStats(w, &s.L2)
	w.U64(s.BytesL1L2)
	w.U64(s.BytesL2Mem)
	for _, v := range s.LoadsFwdByHops {
		w.U64(v)
	}
	for _, v := range s.StoresFwdByHops {
		w.U64(v)
	}
	w.U64(s.LoadCycles)
	w.U64(s.LoadFwdCycles)
	w.U64(s.StoreCycles)
	w.U64(s.StoreFwdCycles)
	w.U64(s.DepViolations)
	w.U64(s.DepBypasses)
	w.U64(s.Traps)
	w.U64(s.CycleFalseAlarms)
	w.U64(s.CyclesDetected)
	w.U64(s.HeapPeak)
	w.U64(s.HeapAllocated)
	w.Int(s.PagesTouched)
}

func decodeStats(r *wire.Reader) Stats {
	var s Stats
	s.Cycles = r.I64()
	for i := range s.Slots {
		s.Slots[i] = r.U64()
	}
	s.Instructions = r.U64()
	s.Loads = r.U64()
	s.Stores = r.U64()
	s.L1 = cache.DecodeStats(r)
	s.L2 = cache.DecodeStats(r)
	s.BytesL1L2 = r.U64()
	s.BytesL2Mem = r.U64()
	for i := range s.LoadsFwdByHops {
		s.LoadsFwdByHops[i] = r.U64()
	}
	for i := range s.StoresFwdByHops {
		s.StoresFwdByHops[i] = r.U64()
	}
	s.LoadCycles = r.U64()
	s.LoadFwdCycles = r.U64()
	s.StoreCycles = r.U64()
	s.StoreFwdCycles = r.U64()
	s.DepViolations = r.U64()
	s.DepBypasses = r.U64()
	s.Traps = r.U64()
	s.CycleFalseAlarms = r.U64()
	s.CyclesDetected = r.U64()
	s.HeapPeak = r.U64()
	s.HeapAllocated = r.U64()
	s.PagesTouched = r.Int()
	return s
}
