// Relocation journal and scavenger: the survival half of the fault
// layer. opt.TryRelocate records its intent (source, target, and the
// chain end of every word it has copied) before mutating anything the
// heap can see; Scavenge replays that intent after a torn relocation —
// a redo (roll-forward) recovery, sound because phase 1 writes only
// unreachable target memory and phase 2's plants are individually
// atomic, so the journal plus the current memory state always
// determine how to finish the move.
package fault

import (
	"fmt"

	"memfwd/internal/core"
	"memfwd/internal/mem"
)

// Journal records one in-flight relocation. It lives host-side (it is
// bookkeeping of the relocation machinery, not guest state): a crash
// inside relocation abandons the guest mid-operation, and the
// scavenger — like a recovery handler reading a persistent intent log
// — completes the move from it.
type Journal struct {
	// Active is set by Begin and cleared by Commit; a torn relocation
	// leaves it set, which is what tells Scavenge there is work.
	Active bool

	Src, Tgt mem.Addr
	NWords   int

	// Ends[i] is the chain-end word of source word i — where the
	// forwarding word for word i is planted. Recorded as each word is
	// copied, so len(Ends) is the copy-phase progress at abort time.
	Ends []mem.Addr
}

// Begin opens the journal for a relocation of nWords words. Nil-safe
// so relocation code can journal unconditionally.
func (j *Journal) Begin(src, tgt mem.Addr, nWords int) {
	if j == nil {
		return
	}
	j.Active = true
	j.Src, j.Tgt, j.NWords = src, tgt, nWords
	j.Ends = j.Ends[:0]
}

// RecordCopy logs that the next word's value now sits in the target
// and its forwarding word will be planted at end.
func (j *Journal) RecordCopy(end mem.Addr) {
	if j == nil {
		return
	}
	j.Ends = append(j.Ends, end)
}

// Commit marks the relocation complete.
func (j *Journal) Commit() {
	if j == nil {
		return
	}
	j.Active = false
}

// Report summarizes what a Scavenge pass found and repaired.
type Report struct {
	// RolledForward is set when an active journal was replayed to
	// completion.
	RolledForward bool

	// Recopied counts target words rewritten because the copy was
	// missing or corrupted; Replanted counts forwarding words planted
	// or re-planted; ClearedFBits counts orphan forwarding bits
	// cleared by the journal-free sweep.
	Recopied, Replanted, ClearedFBits int
}

func (r Report) String() string {
	return fmt.Sprintf("fault: scavenge: rolled_forward=%v recopied=%d replanted=%d cleared_fbits=%d",
		r.RolledForward, r.Recopied, r.Replanted, r.ClearedFBits)
}

// Scavenge detects and repairs a torn relocation, in two passes.
//
// Pass 1 — journal roll-forward. If j records an active relocation, it
// is replayed to completion: for every word, the chain end is taken
// from the journal (or resolved now, for words the copy phase never
// reached — their chains are still intact), the target copy is
// verified against the chain end's still-authoritative value and
// rewritten if missing or corrupted, and the forwarding word is
// planted. Replay is idempotent: words whose copy and plant both
// landed are untouched. The single-fault model makes the case analysis
// sound: at most one word deviates from the protocol state, and the
// journal distinguishes "not yet planted" from "plant corrupted" by
// comparing the chain end's value with the recorded target (a raw data
// word cannot equal the address of a target the guest has never seen).
//
// Pass 2 — orphan sweep. Every forwarding word in materialized memory
// whose target is nil or points into never-touched memory is demoted
// back to a data word (the inversion of a spurious FBitSet: the word's
// value is the original data, untouched by the fault). A spurious fbit
// whose data value happens to alias touched memory is indistinguishable
// from a legitimate forwarding word without a journal entry and is
// deliberately left alone; the structural checkers cannot flag it
// either, which is why corruption inside relocation is instead caught
// eagerly by TryRelocate's verify phases.
//
// inj, when non-nil, is suspended for the duration so repair writes
// pass through the installed write-fault hook unmodified.
func Scavenge(mm *mem.Memory, fwd *core.Forwarder, j *Journal, inj *Injector) (Report, error) {
	inj.Suspend()
	defer inj.Resume()

	var rep Report
	if j != nil && j.Active {
		for i := 0; i < j.NWords; i++ {
			d := j.Tgt + mem.Addr(i*mem.WordSize)
			var e mem.Addr
			if i < len(j.Ends) {
				e = j.Ends[i]
			} else {
				// The copy phase never reached this word: its chain is
				// untouched, so the end can be resolved afresh.
				final, _, err := fwd.Resolve(j.Src+mem.Addr(i*mem.WordSize), nil)
				if err != nil {
					return rep, fmt.Errorf("fault: scavenge of %#x->%#x word %d: %w", j.Src, j.Tgt, i, err)
				}
				e = mem.WordAlign(final)
			}
			ev, efb := mm.ReadWordFBit(e)
			switch {
			case efb && mem.Addr(ev) == d:
				// Copied and planted; nothing to do.
			case efb:
				// Planted, but the forwarding address is corrupted. The
				// copy at d is authoritative (it was verified before any
				// plant); re-point the chain end at it.
				mm.WriteWordFBit(e, uint64(d), true)
				rep.Replanted++
			case mem.Addr(ev) == d:
				// The plant wrote the target address but the fault
				// dropped the forwarding bit; restore it.
				mm.WriteWordFBit(e, uint64(d), true)
				rep.Replanted++
			default:
				// Not yet planted: e still holds the authoritative
				// value. Verify (and if needed redo) the copy, then
				// plant. The copy must land even when the untouched
				// target already reads as the right (zero) value —
				// planting a forwarding word into unmaterialized memory
				// would be demoted by the orphan sweep below.
				dv, dfb := mm.ReadWordFBit(d)
				if dfb || dv != ev || !mm.Touched(d) {
					mm.WriteWordFBit(d, ev, false)
					rep.Recopied++
				}
				mm.WriteWordFBit(e, uint64(d), true)
				rep.Replanted++
			}
		}
		j.Commit()
		rep.RolledForward = true
	}

	mm.EachFBit(func(wa mem.Addr, v uint64) {
		if tgt := mem.Addr(v); tgt == 0 || !mm.Touched(mem.WordAlign(tgt)) {
			mm.WriteWordFBit(wa, v, false)
			rep.ClearedFBits++
		}
	})
	return rep, nil
}

// Repair is Scavenge against the injector's own journal — the usual
// call after RecoverCrash or a torn-relocation error.
func (in *Injector) Repair(mm *mem.Memory, fwd *core.Forwarder) (Report, error) {
	var j *Journal
	if in != nil {
		j = &in.Journal
	}
	return Scavenge(mm, fwd, j, in)
}
