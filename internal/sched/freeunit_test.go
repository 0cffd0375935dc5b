package sched

// freeUnit returns the index of a unit in pool free at the given cycle,
// preferring the one free longest (smallest next-free time), or -1. It
// is the unit selection of the frozen ListScalarRef.
func freeUnit(pool []int, cycle int) int {
	best, bestAt := -1, cycle+1
	for i, at := range pool {
		if at <= cycle && at < bestAt {
			best, bestAt = i, at
		}
	}
	return best
}
