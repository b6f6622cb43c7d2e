package baseline

import (
	"mtask/internal/cost"
	"mtask/internal/graph"
)

// CPR implements the Critical Path Reduction algorithm (Radulescu et al.).
// Unlike CPA, allocation and scheduling are interleaved: starting from one
// core per task, CPR repeatedly offers one more core to a task on the
// critical path of the current schedule, keeps the enlarged allocation if
// the rescheduled makespan improves, and stops when no critical-path task
// improves the schedule. The paper observes that CPR tends to grant many
// cores to the tasks of the longest linear chain (e.g. the EPOL method's
// longest approximation), driving those M-tasks towards a data-parallel
// execution whose extra re-distributions make the schedule slower than
// pure data parallelism (Fig. 13 right).
func CPR(m *cost.Model, g *graph.Graph, P int) (*Gantt, error) {
	return CPRLimited(m, g, P, 60*g.Len())
}

// CPRLimited is CPR with a cap on the number of list-schedule evaluations,
// bounding the runtime on large graphs and core counts. CPR uses a
// generous default cap.
func CPRLimited(m *cost.Model, g *graph.Graph, P, maxEvals int) (*Gantt, error) {
	if _, err := g.TopoOrder(); err != nil {
		return nil, err
	}
	n := g.Len()
	alloc := make([]int, n)
	for id := 0; id < n; id++ {
		alloc[id] = 1
	}
	best, err := listSchedule(m, g, alloc, P)
	if err != nil {
		return nil, err
	}

	evals := 0
	improved := true
	for improved && evals < maxEvals {
		improved = false
		// Tasks on the critical path of the *current* schedule: the
		// chain of entries whose finish equals the makespan,
		// approximated by the graph critical path under the current
		// allocation (markers excluded).
		path := criticalPath(m, g, alloc)
		for _, id := range path {
			t := g.Task(id)
			a := alloc[id]
			if a >= P || (t.MaxWidth > 0 && a >= t.MaxWidth) {
				continue
			}
			alloc[id] = a + 1
			cand, err := listSchedule(m, g, alloc, P)
			if err != nil {
				return nil, err
			}
			evals++
			// Accept non-worsening candidates: in layers of many
			// identical tasks a single increment cannot shorten
			// the makespan until all peers have grown, so strict
			// improvement would stall immediately. Every
			// acceptance grows the total allocation (bounded by
			// n*P) and rejections advance along the path, so the
			// loop terminates.
			if cand.Makespan <= best.Makespan*(1+1e-12) {
				best = cand
				improved = true
				break // restart from the new critical path
			}
			alloc[id] = a // revert
		}
	}
	return best, nil
}
