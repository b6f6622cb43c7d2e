package ode

import (
	"fmt"
	"math"

	"mtask/internal/graph"
	"mtask/internal/runtime"
)

// ScaledExecState gives the scaled planning graphs (BuildUnrolledGraph /
// ScaledSolverGraph) runnable synthetic bodies, so 100k+-task schedules
// can be executed end to end (the benchmark's lib-wavefront workload)
// instead of only planned.
//
// Where ExecState carries a vector per task (a closure and an output
// allocation each), the scaled body carries one scalar, so that dispatch is
// all a 100k-task run measures, and is allocation-free in steady state:
// one shared TaskFunc for every task (the body reads its task id from the
// TaskCtx), one output slot per task in a presized slab, and only
// allocation-free collectives. The value of a task is a deterministic
// function of its id and its predecessors' values — independent of group
// size, launch order and retry count — so any execution (layered,
// wavefront with either dispatcher, degraded after replan) must reproduce
// ScaledReference bitwise.
//
// Slot discipline makes the slab race-free without locks: rank 0 of a
// task's group is the only writer of out[id], predecessors' slots are
// written strictly before the task launches (the dependence edge), and
// retried attempts rewrite the same value (idempotent).
type ScaledExecState struct {
	g    *graph.Graph
	out  []float64
	fn   runtime.TaskFunc
	noop runtime.TaskFunc
}

// NewScaledExecState returns fresh execution state for one run over g
// (the source graph of the schedule being executed).
func NewScaledExecState(g *graph.Graph) *ScaledExecState {
	st := &ScaledExecState{g: g, out: make([]float64, g.Len())}
	st.fn = func(tc *runtime.TaskCtx) error {
		id := tc.Task.ID
		in := 0.0
		for _, p := range st.g.Pred(id) {
			in += st.out[p]
		}
		val := scaledValue(id, in)
		// Every rank contributes the same value, so the reduction must
		// return it exactly — a live cross-rank consistency check that
		// costs one allocation-free collective.
		if m := tc.Group.AllreduceMax(val); m != val {
			return fmt.Errorf("ode: scaled task %d: allreduce returned %v, want %v", id, m, val)
		}
		if tc.Group.Rank() == 0 {
			st.out[id] = val
		}
		return nil
	}
	st.noop = func(tc *runtime.TaskCtx) error { return nil }
	return st
}

// Body is the body function for runtime.ExecuteCtx. It hands every basic
// task the same shared TaskFunc (no per-task closure), so dispatch stays
// allocation-free.
func (st *ScaledExecState) Body(t *graph.Task) runtime.TaskFunc {
	if t.Kind != graph.KindBasic {
		return st.noop
	}
	return st.fn
}

// Outputs returns the live per-task output slab (indexed by task id; do
// not read while an execution is running).
func (st *ScaledExecState) Outputs() []float64 { return st.out }

// scaledValue is the deterministic task value: bounded (tanh keeps the
// predecessor recursion from diverging over thousands of steps) and
// discriminating (the id term makes neighbouring tasks differ).
func scaledValue(id graph.TaskID, in float64) float64 {
	return math.Tanh(0.3*in) + 0.001*float64(int(id)%997)
}

// ScaledReference computes the scaled outputs sequentially in id order —
// the failure-free oracle for ScaledExecState runs. Valid for graphs
// whose basic-task ids ascend topologically (BuildUnrolledGraph assigns
// ids that way; the start marker carries no value, so its back-edges are
// harmless).
func ScaledReference(g *graph.Graph) []float64 {
	out := make([]float64, g.Len())
	for id := 0; id < g.Len(); id++ {
		t := g.Task(graph.TaskID(id))
		if t.Kind != graph.KindBasic {
			continue
		}
		in := 0.0
		for _, p := range g.Pred(graph.TaskID(id)) {
			in += out[p]
		}
		out[id] = scaledValue(graph.TaskID(id), in)
	}
	return out
}

// CompareScaledOutputs verifies that got reproduces want bitwise on every
// slot; it returns the first difference (by task id), or nil.
func CompareScaledOutputs(want, got []float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("ode: scaled outputs hold %d slots, want %d", len(got), len(want))
	}
	for id := range want {
		if math.Float64bits(want[id]) != math.Float64bits(got[id]) {
			return fmt.Errorf("ode: scaled task %d = %v, want %v", id, got[id], want[id])
		}
	}
	return nil
}
