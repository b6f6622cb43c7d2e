// Package cluster simulates the execution of mapped M-task programs on a
// hierarchical multi-core cluster. It replaces the paper's physical
// testbeds (CHiC, SGI Altix, JuRoPA with MPI) by a deterministic
// discrete-event simulation: tasks occupy their physical cores for a
// duration given by the cost model, input-output relations impose
// precedence and re-distribution delays, and concurrent collective
// operations contend for the per-node network interfaces.
//
// The simulation input is a Program: a DAG of mapped tasks. Builders exist
// for the layered schedules of internal/core (FromMapping) and arbitrary
// Gantt-style schedules of the baseline schedulers.
package cluster

import (
	"context"
	"fmt"

	"mtask/internal/arch"
	"mtask/internal/core"
	"mtask/internal/cost"
)

// TaskSpec is one mapped task of a simulated program.
type TaskSpec struct {
	Name string

	// Work is the sequential computation in floating-point operations,
	// divided among the Cores (linear speedup, as in the cost model).
	Work float64

	// CommBytes/CommCount describe the task-internal collectives: the
	// task executes CommCount ring multi-broadcasts in which each core
	// contributes CommBytes/len(Cores) bytes.
	CommBytes int
	CommCount int

	// BcastBytes/BcastCount describe task-internal broadcasts.
	BcastBytes int
	BcastCount int

	// MaxWidth caps the usable parallelism (0 = unlimited).
	MaxWidth int

	// Cores are the physical cores executing the task, in rank order.
	Cores []arch.CoreID

	// CommSets, CommSetBytes and CommSetOps describe an explicit
	// communication phase executed concurrently by several core sets
	// (used for the orthogonal communication between cooperating
	// M-tasks): CommSetOps ring allgathers run simultaneously over all
	// CommSets, each core contributing CommSetBytes bytes. A task with
	// CommSets needs no Cores; the union of the sets is occupied.
	CommSets     [][]arch.CoreID
	CommSetBytes int
	CommSetOps   int

	// Concurrent lists the core sets of all groups executing
	// concurrently with this task (including its own, at index
	// ConcurrentIdx). When set, the task-internal collectives are
	// priced under the mutual contention of all groups — the mapping
	// effect of Section 3.4.
	Concurrent    [][]arch.CoreID
	ConcurrentIdx int

	// Deps lists the indices of tasks that must finish first.
	Deps []int

	// Redist maps a dependency index to the number of bytes that must
	// be re-distributed from that task's cores to this task's cores
	// before this task can start.
	Redist map[int]int
}

// Program is a DAG of mapped tasks ready for simulation.
type Program struct {
	Name  string
	Tasks []TaskSpec
}

// Add appends a task and returns its index.
func (p *Program) Add(t TaskSpec) int {
	p.Tasks = append(p.Tasks, t)
	return len(p.Tasks) - 1
}

// Result holds the outcome of a simulation.
type Result struct {
	// Makespan is the simulated wall-clock time of the program.
	Makespan float64

	// Start and Finish give per-task times.
	Start, Finish []float64

	// CompTime, CommTime and RedistTime aggregate the per-task
	// computation time, communication time (collectives) and the
	// re-distribution delays over all tasks (not wall-clock: concurrent
	// contributions accumulate).
	CompTime, CommTime, RedistTime float64
}

// duration computes a task's execution time under the cost model and
// splits it into computation and communication parts.
func duration(m *cost.Model, t *TaskSpec) (comp, comm float64) {
	q := len(t.Cores)
	cores := t.Cores
	if t.MaxWidth > 0 && q > t.MaxWidth {
		cores = cores[:t.MaxWidth]
		q = t.MaxWidth
	}
	if t.Work > 0 {
		comp = m.CompTime(t.Work, q)
	}
	if t.CommCount > 0 && q > 1 {
		per := t.CommBytes / q
		if per < 1 && t.CommBytes > 0 {
			per = 1
		}
		if len(t.Concurrent) > 0 {
			comm += float64(t.CommCount) * m.AllgatherIn(t.ConcurrentIdx, t.Concurrent, per)
		} else {
			comm += float64(t.CommCount) * m.Allgather([][]arch.CoreID{cores}, per)
		}
	}
	if t.BcastCount > 0 && q > 1 {
		comm += float64(t.BcastCount) * m.Broadcast(cores, t.BcastBytes)
	}
	if t.CommSetOps > 0 && len(t.CommSets) > 0 {
		comm += float64(t.CommSetOps) * m.Allgather(t.CommSets, t.CommSetBytes)
	}
	return comp, comm
}

// Simulate executes the program under the given cost model and returns the
// timing result. The program must be acyclic; tasks sharing cores must be
// ordered by explicit dependencies (the builders in this package take care
// of both).
func Simulate(m *cost.Model, p *Program) (*Result, error) {
	return SimulateCtx(context.Background(), m, p)
}

// SimulateCtx is Simulate with cooperative cancellation: the event loop
// checks the context periodically and returns an error wrapping
// core.ErrCanceled when it fires.
func SimulateCtx(ctx context.Context, m *cost.Model, p *Program) (*Result, error) {
	n := len(p.Tasks)
	res := &Result{Start: make([]float64, n), Finish: make([]float64, n)}

	// Kahn topological order over Deps.
	indeg := make([]int, n)
	succ := make([][]int, n)
	for i, t := range p.Tasks {
		for _, d := range t.Deps {
			if d < 0 || d >= n {
				return nil, fmt.Errorf("cluster: task %d (%s) has invalid dep %d", i, t.Name, d)
			}
			if d == i {
				return nil, fmt.Errorf("cluster: task %d (%s) depends on itself", i, t.Name)
			}
			indeg[i]++
			succ[d] = append(succ[d], i)
		}
		if len(t.Cores) == 0 && len(t.CommSets) == 0 && t.Work > 0 {
			return nil, fmt.Errorf("cluster: task %d (%s) has work but no cores", i, t.Name)
		}
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	done := 0
	for len(queue) > 0 {
		if done%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("simulating %q: %w (%w)", p.Name, core.ErrCanceled, err)
			}
		}
		i := queue[0]
		queue = queue[1:]
		done++
		t := &p.Tasks[i]
		start := 0.0
		for _, d := range t.Deps {
			ready := res.Finish[d]
			if bytes, ok := t.Redist[d]; ok && bytes > 0 {
				rd := m.Redistribute(p.Tasks[d].Cores, effectiveCores(t), bytes)
				ready += rd
				res.RedistTime += rd
			}
			if ready > start {
				start = ready
			}
		}
		comp, comm := duration(m, t)
		res.Start[i] = start
		res.Finish[i] = start + comp + comm
		res.CompTime += comp
		res.CommTime += comm
		if res.Finish[i] > res.Makespan {
			res.Makespan = res.Finish[i]
		}
		for _, s := range succ[i] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if done != n {
		return nil, fmt.Errorf("cluster: program %q has a dependency cycle", p.Name)
	}
	return res, nil
}

// effectiveCores returns the cores a task occupies: its Cores, or the
// union of its CommSets for pure communication phases.
func effectiveCores(t *TaskSpec) []arch.CoreID {
	if len(t.Cores) > 0 {
		return t.Cores
	}
	var u []arch.CoreID
	for _, s := range t.CommSets {
		u = append(u, s...)
	}
	return u
}

// FromMapping converts a layered schedule with its physical mapping into a
// simulatable program. Tasks of one group execute one after another
// (sequential dependencies); layers are separated by a zero-cost barrier
// (the group structure is reorganised between layers); input-output
// relations of the M-task graph add re-distribution delays when producer
// and consumer run on different core sets.
//
// The returned index map gives the program task index of every scheduled
// graph task (or -1 for start/stop markers). The schedule and mapping are
// validated first; a malformed input (overlapping groups, sizes not
// summing to P, cores outside the machine) is reported instead of being
// silently simulated.
func FromMapping(m *cost.Model, mp *core.Mapping) (*Program, []int, error) {
	sched := mp.Schedule
	if err := sched.Validate(); err != nil {
		return nil, nil, fmt.Errorf("cluster: invalid schedule: %w", err)
	}
	if err := mp.Validate(); err != nil {
		return nil, nil, fmt.Errorf("cluster: invalid mapping: %w", err)
	}
	g := sched.Graph
	prog := &Program{Name: g.Name}
	index := make([]int, g.Len())
	for i := range index {
		index[i] = -1
	}

	prevBarrier := -1
	for li, ls := range sched.Layers {
		var layerTasks []int
		for gi, tasks := range ls.Groups {
			cores := mp.Cores[li][gi]
			prev := -1
			for _, id := range tasks {
				t := g.Task(id)
				spec := TaskSpec{
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
				if len(mp.Cores[li]) > 1 {
					spec.Concurrent = mp.Cores[li]
					spec.ConcurrentIdx = gi
				}
				if prev >= 0 {
					spec.Deps = append(spec.Deps, prev)
				}
				if prevBarrier >= 0 {
					spec.Deps = append(spec.Deps, prevBarrier)
				}
				// Data edges from producers (always in earlier
				// layers or earlier in this group's order).
				from, bytes := g.InEdges(id)
				for k, p := range from {
					pi := index[p]
					if pi < 0 {
						continue // start marker
					}
					spec.Deps = append(spec.Deps, pi)
					if b := g.Payload(p, bytes[k]); b > 0 {
						spec.Redist[pi] += b
					}
				}
				idx := prog.Add(spec)
				index[id] = idx
				prev = idx
				layerTasks = append(layerTasks, idx)
			}
		}
		// Layer barrier: a zero-cost task depending on the whole
		// layer.
		barrier := prog.Add(TaskSpec{
			Name: fmt.Sprintf("barrier-%d", li),
			Deps: layerTasks,
		})
		prevBarrier = barrier
	}
	return prog, index, nil
}
