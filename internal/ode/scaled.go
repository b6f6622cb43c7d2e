package ode

import (
	"fmt"

	"mtask/internal/graph"
)

// unrolledFanOut is the number of next-step stages each stage feeds in
// BuildUnrolledGraph. A fixed small fan-out keeps the edge count linear in
// the task count (a full all-to-all would be quadratic in the stage count
// and dominate memory at million-task scale) while still coupling the
// steps so no layer can float.
const unrolledFanOut = 4

// BuildUnrolledGraph returns a deterministic time-step-unrolled
// solver-style M-task graph for the planner's scaling benchmarks: `steps`
// consecutive time steps, each with `stages` independent stage tasks
// followed by a contractible chain of chainLen-1 successor tasks (the
// per-stage micro steps), and a sparse stage-to-stage coupling between
// consecutive steps. After chain contraction every step collapses to
// `stages` nodes forming one layer, so the contracted graph has `steps`
// layers of width `stages` — the shape solver unrolling produces, at any
// requested scale.
//
// Task count is stages*chainLen*steps + 2 (start/stop); edge count is
// linear in it. Work varies deterministically per (step, stage) so the LPT
// order within a layer is non-trivial, and repeats with period workPeriod
// steps so extending the step count reuses earlier layer fingerprints
// (exactly what solver time-step unrolling does to real request streams).
//
// The builder is allocation-lean by construction: tasks come from one
// slab, Grow presizes the task and edge lists, and every edge is one
// AddEdge append, so building a million-task graph performs no map work
// and no quadratic pass, and the graph's first read builds its adjacency
// in a constant number of allocations.
func BuildUnrolledGraph(stages, chainLen, steps, n int, evalFlops float64) *graph.Graph {
	if stages < 1 || chainLen < 1 || steps < 1 {
		panic("ode: BuildUnrolledGraph needs stages, chainLen, steps >= 1")
	}
	const workPeriod = 16
	vb := vecBytes(n)
	total := stages * chainLen * steps
	fan := min(unrolledFanOut, stages)
	chainEdges := stages * (chainLen - 1) * steps
	coupleEdges := stages * fan * (steps - 1)
	g := graph.New(fmt.Sprintf("UNROLL(stages=%d,chain=%d,n=%d)", stages, chainLen, n))
	g.Grow(total+2, chainEdges+coupleEdges+2*stages)

	// Pass 1: tasks, from one slab.
	slab := make([]graph.Task, total)
	next := 0
	// head id of stage i in step s: ids are assigned depth-first per
	// stage, so head(s, i) = (s*stages+i)*chainLen.
	head := func(s, i int) graph.TaskID { return graph.TaskID((s*stages + i) * chainLen) }
	for s := 0; s < steps; s++ {
		for i := 0; i < stages; i++ {
			// Deterministic per-(step, stage) work variation with
			// period workPeriod in s.
			scale := 1 + float64(((s%workPeriod)*31+i*17)%97)/97
			for c := 0; c < chainLen; c++ {
				t := &slab[next]
				next++
				*t = graph.Task{
					Kind:      graph.KindBasic,
					Work:      stageWork(n, stages, evalFlops) * scale,
					CommBytes: vb,
					CommCount: 1,
					OutBytes:  vb / stages,
				}
				g.AddTask(t)
			}
		}
	}
	// Start/stop markers wired directly (the generic AddStartStop reads
	// the adjacency to find sources and sinks; they are known by
	// construction here).
	start := g.AddTask(&graph.Task{Name: "start", Kind: graph.KindStart})
	stop := g.AddTask(&graph.Task{Name: "stop", Kind: graph.KindStop})

	// Pass 2: edges.
	for s := 0; s < steps; s++ {
		for i := 0; i < stages; i++ {
			h := head(s, i)
			for c := 1; c < chainLen; c++ {
				g.MustEdge(h+graph.TaskID(c-1), h+graph.TaskID(c), vb/stages)
			}
			if s > 0 {
				exit := head(s-1, i) + graph.TaskID(chainLen-1)
				for j := 0; j < fan; j++ {
					g.MustEdge(exit, head(s, (i+j)%stages), vb/stages)
				}
			}
		}
	}
	for i := 0; i < stages; i++ {
		g.MustEdge(start, head(0, i), 0)
		g.MustEdge(head(steps-1, i)+graph.TaskID(chainLen-1), stop, 0)
	}
	return g
}

// ScaledSolverGraph returns a BuildUnrolledGraph sized to approximately
// `tasks` M-tasks, with a deterministic shape per scale: wide 100-stage
// steps with 10-task chains at large scale, narrower 20x5 steps below 100k
// tasks so small graphs still have several steps. Used by the
// BenchmarkPlanScaled* planning benchmarks and the execution benchmarks.
func ScaledSolverGraph(tasks int) *graph.Graph {
	stages, chainLen := 100, 10
	if tasks < 100_000 {
		stages, chainLen = 20, 5
	}
	steps := tasks / (stages * chainLen)
	if steps < 1 {
		steps = 1
	}
	return BuildUnrolledGraph(stages, chainLen, steps, 40000, 600)
}
