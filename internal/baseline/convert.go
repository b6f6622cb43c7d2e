package baseline

import (
	"fmt"
	"sort"

	"mtask/internal/arch"
	"mtask/internal/cluster"
	"mtask/internal/cost"
	"mtask/internal/graph"
)

// ToProgram converts a Gantt schedule into a simulatable cluster program.
// The schedule's symbolic cores 0..P-1 are mapped onto physical cores via
// the given sequence (the paper maps baseline schedules consecutively; pass
// a different strategy's sequence to experiment). Dependencies are the
// M-task graph's edges (with re-distribution payloads) plus, per core, the
// occupancy order of the schedule, so that the simulation respects the
// scheduler's placement decisions.
func ToProgram(m *cost.Model, s *Gantt, seq []arch.CoreID) (*cluster.Program, []int, error) {
	if len(seq) < s.P {
		return nil, nil, fmt.Errorf("baseline: sequence provides %d cores, schedule needs %d", len(seq), s.P)
	}
	g := s.Graph
	prog := &cluster.Program{Name: g.Name + "/" + "gantt"}
	index := make([]int, g.Len())
	for i := range index {
		index[i] = -1
	}
	// Emit computational tasks.
	for id := 0; id < g.Len(); id++ {
		t := g.Task(graph.TaskID(id))
		if markerTask(t) {
			continue
		}
		e := s.Entries[id]
		cores := make([]arch.CoreID, len(e.Cores))
		for i, c := range e.Cores {
			cores[i] = seq[c]
		}
		spec := cluster.TaskSpec{
			Name:       t.Name,
			Work:       t.Work,
			CommBytes:  t.CommBytes,
			CommCount:  t.CommCount,
			BcastBytes: t.BcastBytes,
			BcastCount: t.BcastCount,
			MaxWidth:   t.MaxWidth,
			Cores:      cores,
			Redist:     make(map[int]int),
		}
		index[id] = prog.Add(spec)
	}
	// Graph edges (skipping markers transitively is unnecessary: marker
	// entries have zero duration and their predecessors are linked via
	// the core occupancy chains; data edges to/from markers carry no
	// bytes).
	for _, e := range g.Edges() {
		fi, ti := index[e.From], index[e.To]
		if fi < 0 || ti < 0 {
			continue
		}
		spec := &prog.Tasks[ti]
		spec.Deps = append(spec.Deps, fi)
		if bytes := g.Payload(e.From, e.Bytes); bytes > 0 {
			spec.Redist[fi] += bytes
		}
	}
	// Concurrency context: tasks whose scheduled time windows overlap
	// contend for the interconnect; give every computational task the
	// core sets of its overlapping peers so its collectives are priced
	// under the same contention as the layered schedules.
	for a := 0; a < g.Len(); a++ {
		ia := index[a]
		if ia < 0 || prog.Tasks[ia].CommCount == 0 {
			continue
		}
		ea := s.Entries[a]
		concurrent := [][]arch.CoreID{prog.Tasks[ia].Cores}
		for bid := 0; bid < g.Len(); bid++ {
			ib := index[bid]
			if bid == a || ib < 0 {
				continue
			}
			eb := s.Entries[bid]
			if eb.Start < ea.Finish && ea.Start < eb.Finish {
				concurrent = append(concurrent, prog.Tasks[ib].Cores)
			}
		}
		if len(concurrent) > 1 {
			prog.Tasks[ia].Concurrent = concurrent
			prog.Tasks[ia].ConcurrentIdx = 0
		}
	}

	// Per-core occupancy chains in start-time order.
	type occ struct {
		start float64
		idx   int
	}
	perCore := make(map[int][]occ)
	for id := 0; id < g.Len(); id++ {
		if index[id] < 0 {
			continue
		}
		e := s.Entries[id]
		for _, c := range e.Cores {
			perCore[c] = append(perCore[c], occ{start: e.Start, idx: index[id]})
		}
	}
	for _, occs := range perCore {
		sort.Slice(occs, func(i, j int) bool {
			if occs[i].start != occs[j].start {
				return occs[i].start < occs[j].start
			}
			return occs[i].idx < occs[j].idx
		})
		for i := 1; i < len(occs); i++ {
			spec := &prog.Tasks[occs[i].idx]
			spec.Deps = append(spec.Deps, occs[i-1].idx)
		}
	}
	return prog, index, nil
}
