package sched

// InFlight counts the jobs in flight and, of those, the faulted ones.
func (g *Group) InFlight() (jobs, faulted int) {
	for _, h := range g.harts {
		if h.job != nil {
			jobs++
			if h.job.inj != nil {
				faulted++
			}
		}
	}
	return jobs, faulted
}
