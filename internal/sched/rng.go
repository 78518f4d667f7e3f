package sched

// prng is a splitmix64 generator: the schedule is a pure function of
// the seed, so a seed replays its interleaving exactly, and the whole
// state is one word. Quality is far beyond what interleaving choice
// needs.
type prng struct {
	state uint64
}

func (p *prng) next() uint64 {
	p.state += 0x9E3779B97F4A7C15
	z := p.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// Intn returns a value in [0, n) — the agent.Rand draw. n must be
// positive. The tiny modulo bias is irrelevant for scheduling draws and
// keeps the draw count per decision fixed at one, which the replay
// contract depends on.
func (p *prng) Intn(n int) int {
	return int(p.next() % uint64(n))
}
