package tier

import (
	"slices"

	"memfwd/internal/mem"
)

// baseSet is an ordered set of block bases: sorted runs of at most
// runCap bases, every base of a run below every base of the next. An
// add or a remove shifts within one run, so both cost a binary search
// and at most runCap moves, and a walk in base order walks the runs.
type baseSet struct {
	runs  [][]mem.Addr
	spare [][]mem.Addr // emptied runs, reused so a steady state allocates nothing
}

const runCap = 64

// run returns the index of the run that holds base or would take it.
func (s *baseSet) run(base mem.Addr) int {
	lo, hi := 0, len(s.runs)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if r := s.runs[mid]; r[len(r)-1] >= base {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// newRun returns an empty run with room for runCap+1 bases.
func (s *baseSet) newRun() []mem.Addr {
	if n := len(s.spare); n > 0 {
		r := s.spare[n-1]
		s.spare = s.spare[:n-1]
		return r[:0]
	}
	return make([]mem.Addr, 0, runCap+1)
}

// add inserts base, which must not be in the set.
func (s *baseSet) add(base mem.Addr) {
	if len(s.runs) == 0 {
		s.runs = append(s.runs, s.newRun())
	}
	i := s.run(base)
	r := s.runs[i]
	j, _ := slices.BinarySearch(r, base)
	r = slices.Insert(r, j, base)
	if len(r) > runCap {
		upper := append(s.newRun(), r[runCap/2:]...)
		r = r[:runCap/2]
		s.runs = slices.Insert(s.runs, i+1, upper)
	}
	s.runs[i] = r
}

// remove deletes base, which must be in the set. A run left under a
// quarter full absorbs its successor when both fit in one run, so runs
// stay dense however the set shrinks.
func (s *baseSet) remove(base mem.Addr) {
	i := s.run(base)
	r := s.runs[i]
	j, _ := slices.BinarySearch(r, base)
	r = slices.Delete(r, j, j+1)
	s.runs[i] = r
	if len(r) >= runCap/4 {
		return
	}
	if i+1 < len(s.runs) && len(r)+len(s.runs[i+1]) <= runCap {
		s.runs[i] = append(r, s.runs[i+1]...)
		s.spare = append(s.spare, s.runs[i+1])
		s.runs = slices.Delete(s.runs, i+1, i+2)
	} else if len(r) == 0 {
		s.spare = append(s.spare, r)
		s.runs = slices.Delete(s.runs, i, i+1)
	}
}

// walk calls f on every base in ascending order until f returns false.
// f must not change the set.
func (s *baseSet) walk(f func(mem.Addr) bool) {
	for _, r := range s.runs {
		for _, b := range r {
			if !f(b) {
				return
			}
		}
	}
}
