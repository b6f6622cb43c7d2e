// Package core implements the paper's primary contribution: the combined
// scheduling and mapping of M-task programs for hierarchical multi-core
// clusters (Section 3).
//
// Scheduling (Section 3.2) proceeds in three steps on symbolic cores:
// linear chains of the M-task graph are contracted, the contracted graph is
// partitioned into layers of independent tasks, and each layer is scheduled
// by searching over the number g of equal-size core groups, assigning tasks
// to groups with a greedy LPT heuristic and finally adjusting group sizes
// to the assigned computational work (Algorithm 1).
//
// Mapping (Section 3.4) assigns the symbolic cores of the schedule to
// physical cores of an architecture via a strategy-defined sequence of the
// physical cores: consecutive, scattered, or mixed with block size d.
package core

import (
	"fmt"
	"strings"
	"sync"

	"mtask/internal/graph"
)

// GroupID identifies a core group within one layer.
type GroupID int

// LayerSchedule is the schedule of one layer: a partitioning of the P
// symbolic cores into groups and, per group, the ordered list of tasks the
// group executes one after another.
type LayerSchedule struct {
	// Layer lists the task ids (in the scheduled graph) of this layer.
	Layer graph.Layer

	// Groups[i] is the ordered task list of group i.
	Groups [][]graph.TaskID

	// Sizes[i] is the number of symbolic cores of group i. The sizes
	// sum to the total number of cores P.
	Sizes []int

	// Time is the predicted symbolic execution time of the layer
	// (the maximum accumulated group time).
	Time float64
}

// NumGroups returns the number of core groups of the layer.
func (ls *LayerSchedule) NumGroups() int { return len(ls.Groups) }

// GroupOfRank returns the group owning the given symbolic core rank via
// the size prefix sums, or -1 if the rank is out of range.
func (ls *LayerSchedule) GroupOfRank(rank int) GroupID {
	off := 0
	for g, sz := range ls.Sizes {
		if rank < off+sz {
			return GroupID(g)
		}
		off += sz
	}
	return -1
}

// GroupOf returns the group index executing the given task, or -1.
func (ls *LayerSchedule) GroupOf(id graph.TaskID) GroupID {
	for gi, tasks := range ls.Groups {
		for _, t := range tasks {
			if t == id {
				return GroupID(gi)
			}
		}
	}
	return -1
}

// Schedule is a complete layered schedule of an M-task graph on P symbolic
// cores.
type Schedule struct {
	// Source is the original M-task graph.
	Source *graph.Graph

	// Graph is the scheduled graph: Source after linear-chain
	// contraction (identical to Source if contraction was disabled).
	Graph *graph.Graph

	// NodeOf maps original task ids to scheduled-graph ids.
	NodeOf []graph.TaskID

	// Layers holds the per-layer schedules in execution order.
	Layers []*LayerSchedule

	// P is the total number of symbolic cores.
	P int

	// Time is the predicted symbolic makespan: the sum of the layer
	// times (layers execute one after another).
	Time float64

	// layerIdx memoizes LayerOf: layerIdx[id] is the layer of scheduled
	// task id, or -1 for markers outside all layers. Built lazily on the
	// first LayerOf call — schedules are immutable once constructed.
	layerOnce sync.Once
	layerIdx  []int
}

// LayerOf returns the index of the layer containing the scheduled task, or
// -1 if the task is a start/stop marker outside all layers. The id→layer
// index is built once on first use (the former per-call linear scan over
// every layer made LayerOf O(V) — quadratic for callers resolving every
// task, such as the mapper and the precedence builder).
func (s *Schedule) LayerOf(id graph.TaskID) int {
	s.layerOnce.Do(func() {
		idx := make([]int, s.Graph.Len())
		for i := range idx {
			idx[i] = -1
		}
		for li, ls := range s.Layers {
			for _, t := range ls.Layer {
				idx[t] = li
			}
		}
		s.layerIdx = idx
	})
	if int(id) < 0 || int(id) >= len(s.layerIdx) {
		return -1
	}
	return s.layerIdx[id]
}

// MaxGroups returns the largest group count over all layers.
func (s *Schedule) MaxGroups() int {
	max := 0
	for _, ls := range s.Layers {
		if ls.NumGroups() > max {
			max = ls.NumGroups()
		}
	}
	return max
}

// String renders the schedule in a compact human-readable form.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule of %q on %d cores, %d layers, T=%.3gs\n",
		s.Source.Name, s.P, len(s.Layers), s.Time)
	for li, ls := range s.Layers {
		fmt.Fprintf(&b, "  layer %d (g=%d, T=%.3gs):\n", li, ls.NumGroups(), ls.Time)
		for gi, tasks := range ls.Groups {
			fmt.Fprintf(&b, "    group %d [%d cores]:", gi, ls.Sizes[gi])
			for _, id := range tasks {
				fmt.Fprintf(&b, " %s", s.Graph.Task(id).Name)
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}

// Validate checks the structural invariants of the schedule: every layer
// task is assigned to exactly one group, group sizes are positive and sum
// to P, and group task lists contain only layer tasks.
func (s *Schedule) Validate() error {
	for li, ls := range s.Layers {
		if len(ls.Groups) != len(ls.Sizes) {
			return fmt.Errorf("core: layer %d has %d groups but %d sizes", li, len(ls.Groups), len(ls.Sizes))
		}
		total := 0
		for gi, sz := range ls.Sizes {
			if sz <= 0 {
				return fmt.Errorf("core: layer %d group %d has size %d", li, gi, sz)
			}
			total += sz
		}
		if total != s.P {
			return fmt.Errorf("core: layer %d group sizes sum to %d, want %d", li, total, s.P)
		}
		inLayer := make(map[graph.TaskID]bool, len(ls.Layer))
		for _, id := range ls.Layer {
			inLayer[id] = true
		}
		seen := make(map[graph.TaskID]bool)
		for gi, tasks := range ls.Groups {
			for _, id := range tasks {
				if !inLayer[id] {
					return fmt.Errorf("core: layer %d group %d contains foreign task %d", li, gi, id)
				}
				if seen[id] {
					return fmt.Errorf("core: task %d assigned twice in layer %d", id, li)
				}
				seen[id] = true
			}
		}
		if len(seen) != len(ls.Layer) {
			return fmt.Errorf("core: layer %d assigns %d of %d tasks", li, len(seen), len(ls.Layer))
		}
	}
	return nil
}

// SourceTasks expands a scheduled-graph task back to the ordered list of
// original task ids it contains (chain members in chain order, or the task
// itself if it was not merged).
func (s *Schedule) SourceTasks(id graph.TaskID) []graph.TaskID {
	t := s.Graph.Task(id)
	if len(t.Members) == 0 {
		return []graph.TaskID{id}
	}
	return t.Members
}

// SameLayering verifies that b partitions the same source tasks into the
// same layers as a. This is the checkpoint-compatibility invariant of
// degrade-and-replan: layer barriers are the recovery checkpoints, so a
// schedule replanned on fewer cores must keep the layer partition (which
// depends only on the graph structure) while group counts and sizes may
// change freely.
func SameLayering(a, b *Schedule) error {
	if len(a.Layers) != len(b.Layers) {
		return fmt.Errorf("core: replanned schedule has %d layers, want %d", len(b.Layers), len(a.Layers))
	}
	sourceSet := func(s *Schedule, li int) map[graph.TaskID]bool {
		set := make(map[graph.TaskID]bool)
		for _, id := range s.Layers[li].Layer {
			for _, src := range s.SourceTasks(id) {
				set[src] = true
			}
		}
		return set
	}
	for li := range a.Layers {
		sa, sb := sourceSet(a, li), sourceSet(b, li)
		if len(sa) != len(sb) {
			return fmt.Errorf("core: replanned layer %d has %d source tasks, want %d", li, len(sb), len(sa))
		}
		for id := range sa {
			if !sb[id] {
				return fmt.Errorf("core: replanned layer %d is missing source task %d", li, id)
			}
		}
	}
	return nil
}
