package baseline

import (
	"math"

	"mtask/internal/cost"
	"mtask/internal/graph"
)

// CPA implements the Critical Path Allocation algorithm (Radulescu/van
// Gemund). The allocation phase starts with one core per task and
// repeatedly grants one more core to the critical-path task that benefits
// most, until the critical path length TCP no longer exceeds the average
// processor area TA = sum(T(t, a_t) * a_t) / P. The allocation phase does
// not constrain the combined allocation of independent tasks, which is the
// "over-allocation" the paper observes for the PABM benchmark (Fig. 13
// left): independent tasks may together be granted more than P cores, so
// the scheduling phase cannot run them all concurrently.
func CPA(m *cost.Model, g *graph.Graph, P int) (*Gantt, error) {
	if _, err := g.TopoOrder(); err != nil {
		return nil, err
	}
	n := g.Len()
	alloc := make([]int, n)
	for id := 0; id < n; id++ {
		alloc[id] = 1
	}

	area := func() float64 {
		var a float64
		for id := 0; id < n; id++ {
			t := g.Task(graph.TaskID(id))
			if markerTask(t) {
				continue
			}
			a += m.SymbolicTaskTime(t, alloc[id]) * float64(alloc[id])
		}
		return a / float64(P)
	}

	// Allocation phase. Following the original algorithm, the loop
	// stops only when the critical path no longer exceeds the average
	// area — there is no positive-gain guard, so with a cost model
	// whose communication term grows with the allocation, tasks can be
	// granted cores past their sweet spot. That is precisely the
	// over-allocation the paper observes.
	for iter := 0; iter < n*P; iter++ {
		tcp := criticalPathLength(m, g, alloc)
		if tcp <= area() {
			break
		}
		// Pick the critical-path task with the largest gain from one
		// more core (possibly negative).
		path := criticalPath(m, g, alloc)
		var best graph.TaskID = graph.None
		bestGain := math.Inf(-1)
		for _, id := range path {
			t := g.Task(id)
			a := alloc[id]
			if a >= P || (t.MaxWidth > 0 && a >= t.MaxWidth) {
				continue
			}
			gain := m.SymbolicTaskTime(t, a) - m.SymbolicTaskTime(t, a+1)
			if gain > bestGain {
				bestGain = gain
				best = id
			}
		}
		if best == graph.None {
			break
		}
		alloc[best]++
	}

	return listSchedule(m, g, alloc, P)
}
