package dynsched

import (
	"fmt"

	"mtask/internal/core"
)

// Moldable partition sizing, AMTHA/Cao-style: a job's core count is
// chosen once, at admission, from its predicted speedup curve. The
// planner supplies the curve — core.Schedule.Time is the predicted
// symbolic makespan T(p) of the job's layered schedule on a p-core
// partition, produced by the same cost model that prices the
// layer-based group-count search — so sizing needs no profiling runs, and
// repeated probes of the same (graph, partition) pair are served from the
// planner's schedule cache.

// effFloor resolves the configured efficiency floor.
func (a *Allocator) effFloor() float64 {
	if a.EfficiencyFloor == 0 {
		return DefaultEfficiencyFloor
	}
	if a.EfficiencyFloor < 0 {
		return 0
	}
	return a.EfficiencyFloor
}

// moldLocked picks the admission partition for a queued job: candidate
// sizes double from the job's minimum up to min(MaxNodes, free nodes),
// and each doubling is kept only while it still pays — the predicted
// makespan must improve, and the marginal efficiency of the doubling
// (achieved speedup over the ideal node ratio) must stay at or above the
// efficiency floor. The mapping of the chosen size is returned so
// admission does not plan twice. Callers hold a.mu and guarantee
// freeNodes >= js.minN.
func (a *Allocator) moldLocked(js *jobState) (*core.Mapping, int, error) {
	limit := js.maxN
	if a.freeNodes < limit {
		limit = a.freeNodes
	}
	if limit < js.minN {
		return nil, 0, fmt.Errorf("moldable sizing: %d free nodes under the %d-node minimum", a.freeNodes, js.minN)
	}
	candidates := make([]int, 0, 8)
	for c := js.minN; c < limit; c *= 2 {
		candidates = append(candidates, c)
	}
	candidates = append(candidates, limit)

	floor := a.effFloor()
	var best *core.Mapping
	bestN := 0
	prevT := 0.0
	for i, c := range candidates {
		mp, err := a.Planner.PlanPartition(js.ctx, js.job.Graph, a.Machine, c, a.PlanOpts...)
		if err != nil {
			if best == nil {
				return nil, 0, err
			}
			break // keep the last size that planned
		}
		T := mp.Schedule.Time
		if i > 0 {
			if T >= prevT {
				break // no improvement: stay at the smaller partition
			}
			// Marginal efficiency of growing bestN -> c: achieved speedup
			// over the ideal node ratio.
			if (prevT/T)*(float64(bestN)/float64(c)) < floor {
				break
			}
		}
		best, bestN, prevT = mp, c, T
	}
	return best, bestN, nil
}
