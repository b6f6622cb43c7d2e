package nas

import (
	"fmt"

	"mtask/internal/arch"
	"mtask/internal/cluster"
	"mtask/internal/core"
)

// BuildProgram converts a multi-zone configuration into a simulatable
// cluster program: the zones of every group execute one after another on
// the group's cores within a time step; time steps are separated by a
// barrier; the border exchanges between a zone and its neighbours of the
// previous step appear as re-distribution edges, which are free when both
// zones run on the same core set and charge the interconnect otherwise.
// Group core sizes follow the paper's adjustment rule (proportional to the
// group's zone work); the physical cores come from the mapping strategy's
// sequence over the machine.
func BuildProgram(mach *arch.Machine, b Benchmark, zones []Zone, groups [][]int, strat core.Strategy, p, steps int) (*cluster.Program, error) {
	if mach.TotalCores() < p {
		return nil, fmt.Errorf("nas: machine %q has %d cores, need %d", mach.Name, mach.TotalCores(), p)
	}
	if steps < 1 {
		return nil, fmt.Errorf("nas: need at least one step")
	}
	work := make([]float64, len(groups))
	for gi, group := range groups {
		work[gi] = GroupWork(zones, group)
	}
	sizes, err := core.ProportionalGroupSizes(work, p)
	if err != nil {
		return nil, fmt.Errorf("nas: %w", err)
	}
	seq := strat.Sequence(mach)
	groupCores := make([][]arch.CoreID, len(groups))
	off := 0
	for gi, sz := range sizes {
		groupCores[gi] = seq[off : off+sz]
		off += sz
	}

	groupOf := make([]int, len(zones))
	for gi, group := range groups {
		for _, id := range group {
			groupOf[id] = gi
		}
	}

	prog := &cluster.Program{Name: fmt.Sprintf("%s-%dz-%dg", b, len(zones), len(groups))}
	// taskIdx[s][zone] = program index.
	prev := make([]int, len(zones))
	for i := range prev {
		prev[i] = -1
	}
	prevBarrier := -1
	for s := 0; s < steps; s++ {
		cur := make([]int, len(zones))
		var layer []int
		for gi, group := range groups {
			last := -1
			for _, zid := range group {
				z := &zones[zid]
				spec := cluster.TaskSpec{
					Name:  fmt.Sprintf("%s-z%d-s%d", b, zid, s),
					Work:  z.Work,
					Cores: groupCores[gi],
					// The within-zone ADI sweeps of the
					// solver require data transposition
					// across the zone's cores: modelled as
					// two multi-broadcasts of one solution
					// variable per step.
					CommBytes: 8 * z.NX * z.NY * z.NZ,
					CommCount: 2,
					Redist:    make(map[int]int),
				}
				if len(groupCores) > 1 {
					spec.Concurrent = groupCores
					spec.ConcurrentIdx = gi
				}
				if last >= 0 {
					spec.Deps = append(spec.Deps, last)
				}
				if prevBarrier >= 0 {
					spec.Deps = append(spec.Deps, prevBarrier)
				}
				if s > 0 {
					for _, nid := range z.Neighbors {
						pi := prev[nid]
						spec.Deps = append(spec.Deps, pi)
						if groupOf[nid] != gi {
							spec.Redist[pi] += z.BorderBytes[nid]
						}
					}
				}
				idx := prog.Add(spec)
				cur[zid] = idx
				last = idx
				layer = append(layer, idx)
			}
		}
		prevBarrier = prog.Add(cluster.TaskSpec{
			Name: fmt.Sprintf("step-barrier-%d", s),
			Deps: layer,
		})
		prev = cur
	}
	return prog, nil
}
