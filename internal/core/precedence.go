package core

import (
	"fmt"

	"mtask/internal/graph"
)

// TaskDeps is the precomputed execution metadata of one scheduled task:
// where the schedule placed it and which other scheduled tasks must
// complete before it may start. It is the launch condition of the
// wavefront executor — a task is ready when every entry of Deps has
// completed, with no global layer barrier involved.
type TaskDeps struct {
	// ID is the task's id in the scheduled graph.
	ID graph.TaskID

	// Layer, Group and Slot locate the task in the schedule: layer
	// index, group within the layer, position in the group's ordered
	// task list.
	Layer int
	Group GroupID
	Slot  int

	// Lo and Hi are the half-open symbolic core interval [Lo, Hi)
	// occupied by the task's group in its layer. The runtime's dispatcher
	// is keyed on it: the worker of rank Lo leads the task, the workers
	// of (Lo, Hi) run the remaining group ranks.
	Lo, Hi int

	// Deps lists the distinct scheduled tasks that must complete before
	// this one may start, in ascending id order. It is the union of
	//
	//   - the task's predecessors in the scheduled graph that are
	//     themselves assigned to a layer (data dependences; start/stop
	//     markers outside the layers carry no computation and are
	//     dropped), and
	//   - the task's predecessors in the occupancy chain of every
	//     symbolic rank of its group's interval (resource dependences:
	//     the prior occupant must release the rank).
	Deps []graph.TaskID

	// Succs is the inverse of Deps: the scheduled tasks that list this
	// one as a dependence, in ascending id order. Completing this task
	// decrements their outstanding-dependence counters.
	Succs []graph.TaskID
}

// Precedence is the dependence-driven execution metadata of a layered
// schedule, precomputed once per schedule so the wavefront dispatcher's
// hot path is counter decrements only.
//
// The layer barriers of layered execution are a scheduling artifact,
// not a data dependence: a task may start as soon as its graph
// predecessors have completed AND every symbolic rank of its group's
// interval has been released by its prior-layer occupant. Precedence
// makes both conditions explicit per task.
//
// Construction is slab-backed: all TaskDeps entries, the Deps/Succs
// lists, the chains and the scheduled order are carved from a constant
// number of exactly-counted allocations, so deriving the metadata for a
// million-task schedule performs no per-task map work (the former
// per-task dedup maps dominated PrecedenceOf at -scale sizes).
type Precedence struct {
	// Sched is the schedule the metadata was derived from.
	Sched *Schedule

	// Tasks is indexed by scheduled-graph task id; entries for tasks
	// outside all layers (start/stop markers) are nil.
	Tasks []*TaskDeps

	// Scheduled lists the ids of all tasks assigned to layers in
	// deterministic schedule order: layer-major, then group, then slot.
	Scheduled []graph.TaskID

	// Chains[r] is the occupancy chain of symbolic rank r: the tasks
	// that execute on rank r, in execution order (layer-major; within a
	// layer, the rank's group's task list order). Consecutive chain
	// entries are the per-rank resource dependences.
	Chains [][]graph.TaskID

	// LayerCounts[li] is the number of scheduled tasks in layer li (the
	// wavefront executor's completed-layer checkpoint bookkeeping).
	LayerCounts []int

	// MaxGroup is the largest rank-interval size over all scheduled
	// tasks (the group-attempt scratch bound of the runtime's
	// dispatcher).
	MaxGroup int
}

// PrecedenceOf derives the wavefront execution metadata from a layered
// schedule. The result depends only on the schedule and is safe to share
// between goroutines (it is never mutated after construction).
func PrecedenceOf(s *Schedule) (*Precedence, error) {
	if s == nil {
		return nil, fmt.Errorf("core: precedence of nil schedule")
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: precedence: %w", err)
	}

	total := 0
	for _, ls := range s.Layers {
		total += len(ls.Layer)
	}
	p := &Precedence{
		Sched:       s,
		Tasks:       make([]*TaskDeps, s.Graph.Len()),
		Scheduled:   make([]graph.TaskID, 0, total),
		Chains:      make([][]graph.TaskID, s.P),
		LayerCounts: make([]int, len(s.Layers)),
	}

	// Placement pass: one TaskDeps per scheduled task (from one slab),
	// rank intervals from the running size prefix, and exact chain
	// lengths per rank (a group's interval executes the group's task
	// list in order, so every rank of the interval carries that list).
	tdSlab := make([]TaskDeps, total)
	chainLen := make([]int, s.P)
	next := 0
	for li, ls := range s.Layers {
		lo := 0
		for gi, tasks := range ls.Groups {
			hi := lo + ls.Sizes[gi]
			if sz := hi - lo; sz > p.MaxGroup {
				p.MaxGroup = sz
			}
			for slot, id := range tasks {
				td := &tdSlab[next]
				next++
				*td = TaskDeps{ID: id, Layer: li, Group: GroupID(gi), Slot: slot, Lo: lo, Hi: hi}
				p.Tasks[id] = td
				p.Scheduled = append(p.Scheduled, id)
				p.LayerCounts[li]++
			}
			for r := lo; r < hi; r++ {
				chainLen[r] += len(tasks)
			}
			lo = hi
		}
	}

	// Chain pass: carve the per-rank chains from one slab and fill them
	// layer-major. While filling, count the dependence candidates of
	// every task: its scheduled graph predecessors plus one chain
	// predecessor per rank of its interval (except the rank's first
	// occupant).
	chainTotal := 0
	for _, n := range chainLen {
		chainTotal += n
	}
	chainSlab := make([]graph.TaskID, chainTotal)
	off := 0
	for r, n := range chainLen {
		p.Chains[r] = chainSlab[off : off : off+n]
		off += n
	}
	nCand := make([]int, s.Graph.Len())
	for _, ls := range s.Layers {
		lo := 0
		for gi, tasks := range ls.Groups {
			hi := lo + ls.Sizes[gi]
			for r := lo; r < hi; r++ {
				for _, id := range tasks {
					if len(p.Chains[r]) > 0 {
						nCand[id]++ // chain predecessor on rank r
					}
					p.Chains[r] = append(p.Chains[r], id)
				}
			}
			lo = hi
		}
	}
	for _, id := range p.Scheduled {
		for _, pr := range s.Graph.Pred(id) {
			if p.Tasks[pr] != nil {
				nCand[id]++
			}
		}
	}

	// Dependence pass: gather every task's candidates into one slab,
	// then sort and dedup each range in place. The deduped prefix is the
	// task's Deps list; no per-task map is ever built.
	candTotal := 0
	for _, id := range p.Scheduled {
		candTotal += nCand[id]
	}
	candSlab := make([]graph.TaskID, candTotal)
	candOff := make([]int, s.Graph.Len())
	off = 0
	for _, id := range p.Scheduled {
		candOff[id] = off
		off += nCand[id]
	}
	fill := nCand // reuse as fill cursor: reset, then count back up
	for i := range fill {
		fill[i] = 0
	}
	put := func(id, on graph.TaskID) {
		candSlab[candOff[id]+fill[id]] = on
		fill[id]++
	}
	for _, chain := range p.Chains {
		for i := 1; i < len(chain); i++ {
			put(chain[i], chain[i-1])
		}
	}
	for _, id := range p.Scheduled {
		for _, pr := range s.Graph.Pred(id) {
			if p.Tasks[pr] != nil {
				put(id, pr)
			}
		}
	}
	succCount := make([]int, s.Graph.Len())
	for _, id := range p.Scheduled {
		td := p.Tasks[id]
		cand := candSlab[candOff[id] : candOff[id]+fill[id]]
		sortTaskIDs(cand)
		uniq := cand[:0]
		for i, on := range cand {
			if i == 0 || on != cand[i-1] {
				uniq = append(uniq, on)
			}
		}
		td.Deps = uniq
		for _, on := range uniq {
			succCount[on]++
		}
	}

	// Succs pass: the exact inverse. Scheduled ids are visited in
	// schedule order, but each successor list must be ascending by id —
	// fill by ascending id so no per-list sort is needed.
	succTotal := 0
	for _, id := range p.Scheduled {
		succTotal += succCount[id]
	}
	succSlab := make([]graph.TaskID, succTotal)
	off = 0
	for _, id := range p.Scheduled {
		td := p.Tasks[id]
		td.Succs = succSlab[off : off : off+succCount[id]]
		off += succCount[id]
	}
	for id := 0; id < len(p.Tasks); id++ {
		td := p.Tasks[id]
		if td == nil {
			continue
		}
		for _, on := range td.Deps {
			od := p.Tasks[on]
			od.Succs = append(od.Succs, graph.TaskID(id))
		}
	}

	// Soundness: a dependence never points forward in the schedule
	// (same layer only within one group's list, at an earlier slot), so
	// counting down Deps can never deadlock.
	for _, id := range p.Scheduled {
		td := p.Tasks[id]
		for _, on := range td.Deps {
			od := p.Tasks[on]
			if od.Layer > td.Layer || (od.Layer == td.Layer && (od.Group != td.Group || od.Slot >= td.Slot)) {
				return nil, fmt.Errorf("core: precedence: task %d (layer %d group %d slot %d) depends on later task %d (layer %d group %d slot %d)",
					id, td.Layer, td.Group, td.Slot, on, od.Layer, od.Group, od.Slot)
			}
		}
	}
	return p, nil
}

// sortTaskIDs sorts ids ascending in place. Insertion sort: dependence
// candidate lists are short (a task's graph predecessors plus one entry
// per rank of its interval, mostly duplicates), and unlike sort.Slice it
// allocates nothing — PrecedenceOf runs once per executed schedule and
// must not pay per-task allocations at million-task sizes.
func sortTaskIDs(s []graph.TaskID) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}
