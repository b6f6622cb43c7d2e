package mtask

// End-to-end integration test of the full pipeline the paper describes:
// a CM-task specification program is compiled into a hierarchical M-task
// graph, the loop body is scheduled hierarchically with the layer-based
// algorithm, mapped with each strategy, simulated on the cluster model,
// and finally executed for real on the goroutine runtime with real
// numerical work, verifying both the result and the communication
// structure.

import (
	"context"
	"math"
	"sync"
	"testing"

	"mtask/internal/cluster"
	"mtask/internal/core"
	"mtask/internal/cost"
	"mtask/internal/graph"
	"mtask/internal/runtime"
)

const pipelineSpec = `
const R = 4;

task prepare(v:vector:out) work 1000000 out 80000;
task refine(i:int:in, v:vector:in, w:vector:out) work 8000000 comm 80000 out 80000;
task merge(W:Rvectors:in, v:vector:inout) work 2000000;

cmmain PIPE(v:vector:inout:replic) {
  var W : Rvectors;
  var i : int;
  seq {
    prepare(v);
    parfor (i = 1:R) {
      refine(i, v, W[i]);
    }
    merge(W, v);
  }
}
`

func TestFullPipelineSpecToExecution(t *testing.T) {
	// 1. Compile the specification.
	unit, err := CompileSpec(pipelineSpec)
	if err != nil {
		t.Fatal(err)
	}
	g := unit.Graph
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// prepare + 4 refine + merge + start/stop.
	if g.Len() != 8 {
		t.Fatalf("compiled graph has %d nodes, want 8", g.Len())
	}

	// 2. Schedule with the layer-based algorithm on 8 CHiC nodes.
	machine := CHiC().Subset(8)
	model := &cost.Model{Machine: machine}
	sched, err := (&core.Scheduler{Model: model}).Schedule(g, machine.TotalCores())
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sched.Layers) != 3 {
		t.Fatalf("schedule has %d layers, want 3 (prepare | refine x4 | merge)", len(sched.Layers))
	}
	if sched.Layers[1].NumGroups() < 2 {
		t.Fatalf("refine layer not task parallel: %d groups", sched.Layers[1].NumGroups())
	}

	// 3. Map with every strategy and simulate; consecutive must not lose
	// to scattered for this group-communication workload.
	times := map[string]float64{}
	for _, strat := range []core.Strategy{core.Consecutive{}, core.Scattered{}, core.Mixed{D: 2}} {
		mp, err := core.Map(sched, machine, strat)
		if err != nil {
			t.Fatal(err)
		}
		if err := mp.Validate(); err != nil {
			t.Fatal(err)
		}
		prog, _, err := cluster.FromMapping(model, mp)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cluster.Simulate(model, prog)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan <= 0 {
			t.Fatal("zero makespan")
		}
		times[strat.Name()] = res.Makespan
		// The Gantt chart renders.
		if out := cluster.RenderGantt(prog, res, 48); len(out) < 10 {
			t.Fatal("empty gantt")
		}
	}
	if times["consecutive"] > times["scattered"] {
		t.Fatalf("consecutive %g worse than scattered %g", times["consecutive"], times["scattered"])
	}

	// 4. Execute the schedule on the goroutine runtime with real work:
	// prepare fills a vector, refine computes a weighted transform per
	// instance, merge averages. Verify against a sequential oracle.
	const n = 4096
	vecs := map[string][]float64{}
	var vecsMu sync.Mutex
	store := func(key string, v []float64) {
		vecsMu.Lock()
		vecs[key] = v
		vecsMu.Unlock()
	}
	load := func(key string) []float64 {
		vecsMu.Lock()
		defer vecsMu.Unlock()
		return vecs[key]
	}
	bodies := func(task *graph.Task) runtime.TaskFunc {
		return func(ctx *runtime.TaskCtx) error {
			lo, hi := runtime.BlockRange(n, ctx.Group.Size(), ctx.Group.Rank())
			switch {
			case task.Name == "prepare(v)":
				blk := make([]float64, hi-lo)
				for i := range blk {
					blk[i] = float64(lo + i)
				}
				full := ctx.Group.Allgather(blk)
				if ctx.Group.Rank() == 0 {
					store("v", full)
				}
				ctx.Group.Barrier()
				return nil
			case len(task.Name) > 6 && task.Name[:7] == "refine(":
				// refine(i,v,W[i]): w = i * v (blockwise).
				idx := float64(task.Name[7] - '0')
				src := load("v")
				blk := make([]float64, hi-lo)
				for i := range blk {
					blk[i] = idx * src[lo+i]
				}
				full := ctx.Group.Allgather(blk)
				if ctx.Group.Rank() == 0 {
					store(task.Name, full)
				}
				ctx.Group.Barrier()
				return nil
			default: // merge
				blk := make([]float64, hi-lo)
				for r := 1; r <= 4; r++ {
					w := load(refineName(r))
					for i := range blk {
						blk[i] += w[lo+i] / 4
					}
				}
				full := ctx.Group.Allgather(blk)
				if ctx.Group.Rank() == 0 {
					store("result", full)
				}
				ctx.Group.Barrier()
				return nil
			}
		}
	}
	w, err := NewWorld(sched.P)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ExecuteCtx(context.Background(), w, sched, bodies)
	if err != nil {
		t.Fatalf("%v\n%s", err, rep)
	}
	if rep.Layers != len(sched.Layers) || len(rep.Spans) != 6 {
		t.Fatalf("report: %d layers, %d spans; want %d layers, 6 spans\n%s", rep.Layers, len(rep.Spans), len(sched.Layers), rep)
	}
	// Oracle: result[i] = mean over r of r*i = 2.5*i.
	for i := 0; i < n; i += 997 {
		want := 2.5 * float64(i)
		if math.Abs(vecs["result"][i]-want) > 1e-9 {
			t.Fatalf("result[%d] = %g, want %g", i, vecs["result"][i], want)
		}
	}
	// The runtime counted group collectives (one allgather per task).
	if got := w.Stats.Count(runtime.Group, runtime.OpAllgather); got < 4 {
		t.Fatalf("only %d group allgathers recorded", got)
	}
}

func refineName(i int) string {
	return "refine(" + string(rune('0'+i)) + ",v,W[" + string(rune('0'+i)) + "])"
}
