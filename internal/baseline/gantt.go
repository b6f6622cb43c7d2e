// Package baseline implements the two-phase M-task scheduling algorithms
// CPA and CPR that the paper uses as comparison baselines in Section 4.3
// (Radulescu/van Gemund, "A low-cost approach towards mixed task and data
// parallel scheduling", and Radulescu et al., "CPR: mixed task and data
// parallel scheduling for distributed systems").
//
// Both algorithms separate an allocation phase, which fixes the number of
// cores per M-task, from a scheduling phase, which is a list scheduler
// placing each task on concrete (symbolic) cores at a concrete start time.
// Unlike the layer-based algorithm of internal/core, the resulting
// schedules have no layered structure, so they cannot be combined with the
// paper's mapping step; they are mapped with a fixed consecutive core
// sequence for simulation.
package baseline

import (
	"container/heap"
	"fmt"
	"sort"

	"mtask/internal/cost"
	"mtask/internal/graph"
)

// Entry is the placement of one task in a Gantt schedule.
type Entry struct {
	Task   graph.TaskID
	Start  float64
	Finish float64
	// Cores lists the symbolic core indices (0..P-1) executing the
	// task. Empty for start/stop markers.
	Cores []int
}

// Gantt is a complete M-task schedule with explicit start times and core
// sets.
type Gantt struct {
	Graph    *graph.Graph
	P        int
	Entries  []Entry // indexed by task id
	Makespan float64
}

// Validate checks that no core executes two tasks at overlapping times and
// that precedence constraints hold.
func (s *Gantt) Validate() error {
	type span struct {
		start, finish float64
		task          graph.TaskID
	}
	perCore := make([][]span, s.P)
	for _, e := range s.Entries {
		for _, c := range e.Cores {
			if c < 0 || c >= s.P {
				return fmt.Errorf("baseline: task %d on invalid core %d", e.Task, c)
			}
			perCore[c] = append(perCore[c], span{e.Start, e.Finish, e.Task})
		}
	}
	const eps = 1e-12
	for c, spans := range perCore {
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].finish-eps {
				return fmt.Errorf("baseline: core %d overlaps tasks %d and %d",
					c, spans[i-1].task, spans[i].task)
			}
		}
	}
	for _, e := range s.Graph.Edges() {
		if s.Entries[e.To].Start < s.Entries[e.From].Finish-eps {
			return fmt.Errorf("baseline: precedence %d->%d violated", e.From, e.To)
		}
	}
	return nil
}

// bottomLevels returns, per task, the length of the longest path from the
// task to any exit, including the task's own execution time under the given
// allocation — the standard list-scheduling priority.
func bottomLevels(m *cost.Model, g *graph.Graph, alloc []int) []float64 {
	order, _ := g.TopoOrder()
	bl := make([]float64, g.Len())
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		var succMax float64
		for _, sid := range g.Succ(id) {
			if bl[sid] > succMax {
				succMax = bl[sid]
			}
		}
		bl[id] = m.SymbolicTaskTime(g.Task(id), alloc[id]) + succMax
	}
	return bl
}

// clampAlloc bounds an allocation by 1, P and the task's MaxWidth.
func clampAlloc(t *graph.Task, a, P int) int {
	if a < 1 {
		a = 1
	}
	if a > P {
		a = P
	}
	if t.MaxWidth > 0 && a > t.MaxWidth {
		a = t.MaxWidth
	}
	return a
}

// markerTask reports whether the task carries no computation (start/stop).
func markerTask(t *graph.Task) bool {
	return t.Kind == graph.KindStart || t.Kind == graph.KindStop
}

// listSchedule is the list scheduler CPA and CPR run; tests swap in a
// reference implementation to compare whole runs.
var listSchedule = ListSchedule

// ListSchedule runs the scheduling phase shared by CPA and CPR: tasks are
// processed in decreasing bottom-level priority among ready tasks; each
// task starts as early as its predecessors (plus re-distribution of their
// outputs) and the availability of alloc[t] symbolic cores permit. The
// chosen cores are those free earliest, ties going to the lower index.
func ListSchedule(m *cost.Model, g *graph.Graph, alloc []int, P int) (*Gantt, error) {
	n := g.Len()
	if len(alloc) != n {
		return nil, fmt.Errorf("baseline: allocation has %d entries for %d tasks", len(alloc), n)
	}
	if _, err := g.TopoOrder(); err != nil {
		return nil, err
	}
	bl := bottomLevels(m, g, alloc)

	sched := &Gantt{Graph: g, P: P, Entries: make([]Entry, n)}
	free := make(coreHeap, P) // all cores free at time 0, already a heap
	for i := range free {
		free[i].idx = i
	}
	indeg := make([]int, n)
	for id := 0; id < n; id++ {
		indeg[id] = len(g.Pred(graph.TaskID(id)))
	}
	ready := make([]graph.TaskID, 0, n)
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			ready = append(ready, graph.TaskID(id))
		}
	}
	scheduled := 0
	for len(ready) > 0 {
		// Highest priority first; ties by id for determinism.
		sort.Slice(ready, func(i, j int) bool {
			if bl[ready[i]] != bl[ready[j]] {
				return bl[ready[i]] > bl[ready[j]]
			}
			return ready[i] < ready[j]
		})
		id := ready[0]
		ready = ready[1:]
		t := g.Task(id)

		// Data-ready time: predecessors plus re-distribution.
		var dataReady float64
		from, bytes := g.InEdges(id)
		for k, p := range from {
			f := sched.Entries[p].Finish
			if b := g.Payload(p, bytes[k]); b > 0 {
				f += m.SymbolicRedistribute(alloc[p], alloc[id], b)
			}
			if f > dataReady {
				dataReady = f
			}
		}

		var cores []int
		start, finish := dataReady, dataReady
		if !markerTask(t) {
			// Take the a cores that free up earliest; the task
			// starts once all of them are free.
			a := clampAlloc(t, alloc[id], P)
			cores = make([]int, a)
			for i := range cores {
				c := heap.Pop(&free).(freeCore)
				cores[i] = c.idx
				if c.at > start {
					start = c.at
				}
			}
			finish = start + m.SymbolicTaskTime(t, a)
			for _, c := range cores {
				heap.Push(&free, freeCore{at: finish, idx: c})
			}
			sort.Ints(cores)
		}
		sched.Entries[id] = Entry{Task: id, Start: start, Finish: finish, Cores: cores}
		if finish > sched.Makespan {
			sched.Makespan = finish
		}
		scheduled++
		for _, s := range g.Succ(id) {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if scheduled != n {
		return nil, fmt.Errorf("baseline: scheduled %d of %d tasks", scheduled, n)
	}
	return sched, nil
}

// freeCore is a symbolic core and the time it becomes free.
type freeCore struct {
	at  float64
	idx int
}

// coreHeap orders cores by (free time, index), earliest first.
type coreHeap []freeCore

func (h coreHeap) Len() int { return len(h) }
func (h coreHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].idx < h[j].idx
}
func (h coreHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *coreHeap) Push(x any)   { *h = append(*h, x.(freeCore)) }
func (h *coreHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}

// criticalPath returns the tasks on a longest path through the graph under
// the given allocation (by execution time, excluding markers).
func criticalPath(m *cost.Model, g *graph.Graph, alloc []int) []graph.TaskID {
	order, _ := g.TopoOrder()
	dist := make([]float64, g.Len())
	via := make([]graph.TaskID, g.Len())
	var best graph.TaskID = graph.None
	var bestDist float64 = -1
	for _, id := range order {
		via[id] = graph.None
		var predMax float64
		for _, p := range g.Pred(id) {
			if dist[p] > predMax {
				predMax = dist[p]
				via[id] = p
			}
		}
		d := 0.0
		if !markerTask(g.Task(id)) {
			d = m.SymbolicTaskTime(g.Task(id), alloc[id])
		}
		dist[id] = predMax + d
		if dist[id] > bestDist {
			bestDist = dist[id]
			best = id
		}
	}
	var path []graph.TaskID
	for id := best; id != graph.None; id = via[id] {
		if !markerTask(g.Task(id)) {
			path = append(path, id)
		}
	}
	// Reverse to source-to-sink order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// criticalPathLength is the length of the longest path (markers excluded).
func criticalPathLength(m *cost.Model, g *graph.Graph, alloc []int) float64 {
	order, _ := g.TopoOrder()
	dist := make([]float64, g.Len())
	var max float64
	for _, id := range order {
		var predMax float64
		for _, p := range g.Pred(id) {
			if dist[p] > predMax {
				predMax = dist[p]
			}
		}
		d := 0.0
		if !markerTask(g.Task(id)) {
			d = m.SymbolicTaskTime(g.Task(id), alloc[id])
		}
		dist[id] = predMax + d
		if dist[id] > max {
			max = dist[id]
		}
	}
	return max
}
