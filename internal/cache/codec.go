package cache

// Binary codec for the cache snapshots, built on internal/wire. Decode
// validates the geometry with the same rules New enforces by panic —
// before any size arithmetic — so a corrupted snapshot is an error
// from the decoder, never a panic in cache construction downstream.

import (
	"memfwd/internal/wire"
)

const (
	lineEncBytes = 8 + 1 + 1 + 8 // tag, valid, dirty, lru
	mshrEncBytes = 8 + 8 + 1     // lineAddr, ready, inUse
)

// EncodeStats appends a Stats encoding to w. Exported because sim's
// aggregate Stats embeds cache.Stats per level.
func EncodeStats(w *wire.Writer, s *Stats) {
	for _, v := range s.Hits {
		w.U64(v)
	}
	for _, v := range s.PartialMisses {
		w.U64(v)
	}
	for _, v := range s.FullMisses {
		w.U64(v)
	}
	w.U64(s.WriteBacks)
	w.U64(s.BytesFromNext)
	w.U64(s.BytesToNext)
	w.I64(s.MSHRStallCycles)
	w.U64(s.PrefetchesDropped)
}

// DecodeStats reads a Stats encoded by EncodeStats.
func DecodeStats(r *wire.Reader) Stats {
	var s Stats
	for i := range s.Hits {
		s.Hits[i] = r.U64()
	}
	for i := range s.PartialMisses {
		s.PartialMisses[i] = r.U64()
	}
	for i := range s.FullMisses {
		s.FullMisses[i] = r.U64()
	}
	s.WriteBacks = r.U64()
	s.BytesFromNext = r.U64()
	s.BytesToNext = r.U64()
	s.MSHRStallCycles = r.I64()
	s.PrefetchesDropped = r.U64()
	return s
}

// EncodeWire appends the cache snapshot's encoding to w.
func (s *CacheSnapshot) EncodeWire(w *wire.Writer) {
	w.String(s.cfg.Name)
	w.Int(s.cfg.SizeBytes)
	w.Int(s.cfg.LineSize)
	w.Int(s.cfg.Assoc)
	w.I64(s.cfg.HitLatency)
	w.Int(s.cfg.MSHRs)
	w.Int(s.cfg.TransferBytesPerCycle)
	w.U32(uint32(len(s.tags)))
	for i, t := range s.tags {
		w.U64(t)
		w.Bool(s.valid[i])
		w.Bool(s.dirty[i])
		w.I64(s.lru[i])
	}
	w.U32(uint32(len(s.mshrs)))
	for _, m := range s.mshrs {
		w.U64(m.lineAddr)
		w.I64(m.ready)
		w.Bool(m.inUse)
	}
	w.I64(s.clock)
	EncodeStats(w, &s.stats)
}

// DecodeCacheSnapshot reads a snapshot encoded by EncodeWire,
// validating the geometry against the invariants New enforces. Errors
// latch on r.
func DecodeCacheSnapshot(r *wire.Reader) *CacheSnapshot {
	s := &CacheSnapshot{}
	s.cfg.Name = r.String()
	s.cfg.SizeBytes = r.Int()
	s.cfg.LineSize = r.Int()
	s.cfg.Assoc = r.Int()
	s.cfg.HitLatency = r.I64()
	s.cfg.MSHRs = r.Int()
	s.cfg.TransferBytesPerCycle = r.Int()
	if r.Err() != nil {
		return s
	}
	// Mirror the construction-time panics as decode errors, checking
	// divisors before dividing.
	cfg := s.cfg
	if cfg.LineSize <= 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		r.Failf("cache: %s line size %d not a positive power of two", cfg.Name, cfg.LineSize)
		return s
	}
	if cfg.SizeBytes <= 0 || cfg.Assoc <= 0 {
		r.Failf("cache: %s geometry size=%d assoc=%d invalid", cfg.Name, cfg.SizeBytes, cfg.Assoc)
		return s
	}
	nLines := cfg.SizeBytes / cfg.LineSize
	if nLines <= 0 || nLines%cfg.Assoc != 0 {
		r.Failf("cache: %s %d lines not divisible into %d ways", cfg.Name, nLines, cfg.Assoc)
		return s
	}
	nSets := nLines / cfg.Assoc
	if nSets&(nSets-1) != 0 {
		r.Failf("cache: %s set count %d not a power of two", cfg.Name, nSets)
		return s
	}
	if cfg.MSHRs <= 0 || cfg.MSHRs > MaxMSHRs {
		r.Failf("cache: %s MSHR count %d outside [1, %d]", cfg.Name, cfg.MSHRs, MaxMSHRs)
		return s
	}

	nl := r.Count(lineEncBytes)
	if r.Err() == nil && nl != nLines {
		r.Failf("cache: %s has %d lines, geometry needs %d", cfg.Name, nl, nLines)
		return s
	}
	s.tags = make([]uint64, nl)
	s.valid = make([]bool, nl)
	s.dirty = make([]bool, nl)
	s.lru = make([]int64, nl)
	for i := range s.tags {
		s.tags[i] = r.U64()
		s.valid[i] = r.Bool()
		s.dirty[i] = r.Bool()
		s.lru[i] = r.I64()
	}
	nm := r.Count(mshrEncBytes)
	if r.Err() == nil && nm != cfg.MSHRs {
		r.Failf("cache: %s has %d MSHR entries, config says %d", cfg.Name, nm, cfg.MSHRs)
		return s
	}
	s.mshrs = make([]mshr, nm)
	for i := range s.mshrs {
		s.mshrs[i].lineAddr = r.U64()
		s.mshrs[i].ready = r.I64()
		s.mshrs[i].inUse = r.Bool()
	}
	s.clock = r.I64()
	s.stats = DecodeStats(r)
	return s
}

// EncodeWire appends the main-memory snapshot's encoding to w.
func (s *MainMemorySnapshot) EncodeWire(w *wire.Writer) {
	w.I64(s.latency)
	w.Int(s.bytesPerCycle)
	w.Int(s.lineSize)
	w.I64(s.busFree)
	w.U64(s.bytesRead)
	w.U64(s.bytesWritten)
}

// DecodeMainMemorySnapshot reads a snapshot encoded by EncodeWire.
func DecodeMainMemorySnapshot(r *wire.Reader) MainMemorySnapshot {
	return MainMemorySnapshot{
		latency:       r.I64(),
		bytesPerCycle: r.Int(),
		lineSize:      r.Int(),
		busFree:       r.I64(),
		bytesRead:     r.U64(),
		bytesWritten:  r.U64(),
	}
}
