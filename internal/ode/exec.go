package ode

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"mtask/internal/graph"
	"mtask/internal/runtime"
)

// ExecState gives a solver M-task graph deterministic SPMD bodies with
// real vector payloads: every task reads the output vectors of its graph
// predecessors, computes a vector that depends only on those and on the
// task's identity, and publishes it. The trajectory is a pure function of
// the graph — independent of group sizes, schedules, retries, resizes and
// replans — so every execution must reproduce the sequential Reference
// bitwise; the executor's and the job allocator's property tests and the
// benchmark's ode-layered workload check exactly that. A task costs what
// the paper's model charges, Tcomp/q + Tcomm: a rank of a q-core group
// assembles and computes only its n/q block, in place inside its gather
// destination, and one Allgather completes the vector.
//
// out[id] is written only by rank 0 of an attempt of task id, after the
// attempt's gather and before its closing Barrier, and only with a vector
// that attempt allocated itself. The group's own next body (a contracted
// chain) reads it after that Barrier, other successors after the layer
// join (layered mode) or the dependence counter's last decrement
// (wavefront mode). A timed-out attempt whose goroutines the executor
// abandoned can at worst publish a second, identical vector — never write
// into the one a retry published and successors are reading. mu orders
// those slice headers and the free list's; no arithmetic runs under it.
// Bodies are idempotent: a retry, or a layer re-executed after a replan,
// recomputes the same vector.
type ExecState struct {
	G *graph.Graph
	N int // vector length

	preds [][]graph.TaskID // per task: predecessor ids, ascending

	mu   sync.Mutex
	out  [][]float64 // per task: the published output vector, nil until then
	free [][]float64 // gather destinations of ranks other than 0, for reuse
}

// NewExecState returns an execution state for the graph with vectors of
// length n.
func NewExecState(g *graph.Graph, n int) *ExecState {
	st := &ExecState{G: g, N: n, preds: make([][]graph.TaskID, g.Len()), out: make([][]float64, g.Len())}
	for id := range st.preds {
		st.preds[id] = slices.Clone(g.Pred(graph.TaskID(id)))
		slices.Sort(st.preds[id])
	}
	return st
}

// compute fills dst, elements [lo, lo+len(dst)) of the task's output: the
// task value of the elementwise sum of the published predecessor outputs —
// added from 0.0 predecessor by predecessor in ascending id, the order all
// results are pinned to bitwise — or of the initial vector when no
// predecessor has an output (source tasks; start/stop markers have none).
func (st *ExecState) compute(id graph.TaskID, dst []float64, lo int) {
	clear(dst)
	stored := false
	for _, p := range st.preds[id] {
		st.mu.Lock()
		v := st.out[p]
		st.mu.Unlock()
		if v == nil {
			continue
		}
		stored = true
		for j, x := range v[lo : lo+len(dst)] {
			dst[j] += x
		}
	}
	for j := range dst {
		i := lo + j
		if !stored {
			dst[j] = 1 + 0.001*float64(i%13)
		}
		dst[j] = taskValue(dst[j], id, i)
	}
}

// taskValue is the synthetic per-element computation: bounded (tanh keeps
// the trajectory finite over many steps), dependent on the input value,
// the task identity and the element index, and bitwise deterministic.
func taskValue(base float64, id graph.TaskID, i int) float64 {
	return math.Tanh(0.3*base+0.05*float64(id+1)) + 0.001*float64(i%7)
}

// Body returns the SPMD body of the task: each rank computes its block in
// place inside a full-length vector, one in-place Allgather completes
// every rank's vector, an AllreduceMax models the solver's step-control
// reduction, and rank 0 publishes its vector (a fresh allocation of every
// attempt, see the type comment) before the closing Barrier. The other
// ranks recycle theirs through the state's free list — not a sync.Pool,
// whose runtime lists keep the whole state, outputs included, reachable
// for two GC cycles; a failed attempt's vectors are left to the collector.
// Start/stop markers get a no-op body.
func (st *ExecState) Body(t *graph.Task) runtime.TaskFunc {
	if t.Kind != graph.KindBasic {
		return func(tc *runtime.TaskCtx) error { return nil }
	}
	return func(tc *runtime.TaskCtx) error {
		size, rank := tc.Group.Size(), tc.Group.Rank()
		lo, hi := runtime.BlockRange(st.N, size, rank)
		var full []float64
		if rank != 0 {
			st.mu.Lock()
			if k := len(st.free) - 1; k >= 0 {
				full, st.free = st.free[k], st.free[:k]
			}
			st.mu.Unlock()
		}
		if full == nil {
			full = make([]float64, st.N)
		}
		block := full[lo:hi]
		st.compute(t.ID, block, lo)
		full = tc.Group.AllgatherInto(block, full)
		if len(full) != st.N {
			return fmt.Errorf("ode: task %q assembled %d of %d elements", t.Name, len(full), st.N)
		}
		norm := 0.0
		for _, v := range block {
			if a := math.Abs(v); a > norm {
				norm = a
			}
		}
		tc.Group.AllreduceMax(norm) // step-control reduction (value unused)
		st.mu.Lock()
		if rank == 0 {
			st.out[t.ID] = full
		} else {
			st.free = append(st.free, full)
		}
		st.mu.Unlock()
		tc.Group.Barrier()
		return nil
	}
}

// Reference computes the trajectory sequentially (topological order,
// single core, the same kernel over whole vectors) and returns the
// outputs. It is the failure-free oracle for comparing fault-tolerant runs.
func Reference(g *graph.Graph, n int) map[graph.TaskID][]float64 {
	st := NewExecState(g, n)
	order, err := g.TopoOrder()
	if err != nil {
		panic(fmt.Sprintf("ode: reference on invalid graph: %v", err))
	}
	for _, id := range order {
		if g.Task(id).Kind == graph.KindBasic {
			st.out[id] = make([]float64, n)
			st.compute(id, st.out[id], 0)
		}
	}
	return st.Outputs()
}

// Outputs returns the published output vectors by task id in a map built
// for the call. The vectors are not copies: callers must not mutate them,
// and get only the tasks completed so far while an execution is running.
func (st *ExecState) Outputs() map[graph.TaskID][]float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[graph.TaskID][]float64, len(st.out))
	for id, v := range st.out {
		if v != nil {
			out[graph.TaskID(id)] = v
		}
	}
	return out
}

// CompareOutputs verifies that got reproduces want bitwise on every task
// present in want; it returns the first difference found (sorted by task
// id for determinism), or nil.
func CompareOutputs(want, got map[graph.TaskID][]float64) error {
	ids := make([]graph.TaskID, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		w, g := want[id], got[id]
		if g == nil {
			return fmt.Errorf("ode: task %d has no output", id)
		}
		if len(w) != len(g) {
			return fmt.Errorf("ode: task %d output length %d, want %d", id, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				return fmt.Errorf("ode: task %d element %d = %v, want %v", id, i, g[i], w[i])
			}
		}
	}
	return nil
}
