// Speclang: compile the paper's Fig. 3 specification of the extrapolation
// method with the CM-task-style compiler front-end, show the hierarchical
// M-task graph it produces (Fig. 4), and schedule + map the time-step body
// with the combined algorithm (Figs. 5, 6 and 12).
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"mtask"
	"mtask/internal/cluster"
	"mtask/internal/core"
	"mtask/internal/cost"
	"mtask/internal/graph"
	"mtask/internal/runtime"
)

// epolSpec is the specification program of the paper's Fig. 3, extended
// with the task declarations the figure omits.
const epolSpec = `
const R = 4;        // number of approximations
const Tend = ...;   // end of integration interval

task init_step(t:scalar:out, h:scalar:out) work 100;
task step(j:int:in, i:int:in, t:scalar:in, h:scalar:in,
          eta_k:vector:in:replic, v:vector:inout:block)
     work 4000000 comm 800000;
task combine(t:scalar:inout, h:scalar:inout, V:Rvectors:in,
             eta_k:vector:inout:replic) work 2000000 out 800000;

cmmain EPOL(eta_k:vector:inout:replic) {
  var t, h : scalar;
  var V : Rvectors;
  var i, j : int;
  seq {
    init_step(t, h);
    while (t < Tend) {
      seq {
        parfor (i = 1:R) {
          for (j = 1:i) {
            step(j, i, t, h, eta_k, V[i]);
          }
        }
        combine(t, h, V, eta_k);
      }
    }
  }
}
`

func main() {
	unit, err := mtask.CompileSpec(epolSpec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("upper-level M-task graph (%d nodes):\n", unit.Graph.Len())
	for _, t := range unit.Graph.Tasks() {
		fmt.Printf("  [%d] %-24s %s\n", t.ID, t.Name, t.Kind)
	}

	// The while loop compiles to a composed node whose Sub graph is one
	// time step (Fig. 4).
	var body *graph.Graph
	for _, t := range unit.Graph.Tasks() {
		if t.Kind == graph.KindComposed {
			body = t.Sub
		}
	}
	fmt.Printf("\nlower-level graph of the time-stepping loop (%d nodes):\n", body.Len())
	contracted := graph.ContractChains(body)
	fmt.Printf("after linear-chain contraction: %d nodes (the R=4 approximation chains)\n",
		contracted.Graph.Len())
	for li, layer := range graph.Layers(contracted.Graph) {
		fmt.Printf("  layer %d: %d independent M-tasks\n", li, len(layer))
	}

	// Schedule and map the body on 8 CHiC nodes (32 cores).
	machine := mtask.CHiC().Subset(8)
	model := &cost.Model{Machine: machine}
	sched, err := (&core.Scheduler{Model: model}).Schedule(body, machine.TotalCores())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s", sched.String())
	for _, strat := range []core.Strategy{core.Consecutive{}, core.Scattered{}, core.Mixed{D: 2}} {
		mp, err := core.Map(sched, machine, strat)
		if err != nil {
			log.Fatal(err)
		}
		prog, _, err := cluster.FromMapping(model, mp)
		if err != nil {
			log.Fatal(err)
		}
		res, err := cluster.Simulate(model, prog)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("mapping %-12s -> predicted time per step %.4g s\n",
			strat.Name(), res.Makespan)
	}

	// Hierarchical scheduling + execution: the whole program (including
	// the while node) runs on the goroutine runtime; the loop body
	// executes its recursively computed schedule three times.
	hs, err := (&core.Scheduler{Model: model}).ScheduleHierarchical(unit.Graph, 8)
	if err != nil {
		log.Fatal(err)
	}
	w, err := mtask.NewWorld(8)
	if err != nil {
		log.Fatal(err)
	}
	activations := make(map[string]int)
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	rep, err := runtime.ExecuteHierarchicalCtx(context.Background(), w, hs, func(t *graph.Task) runtime.TaskFunc {
		return func(ctx *runtime.TaskCtx) error {
			if ctx.Group.Rank() == 0 {
				<-mu
				activations[t.Name]++
				mu <- struct{}{}
			}
			ctx.Group.Barrier()
			return nil
		}
	}, func(t *graph.Task, done int) bool { return done < 3 })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nhierarchical execution on 8 goroutine cores (3 while iterations):")
	fmt.Printf("  init_step activations:  %d\n", activations["init_step(t,h)"])
	fmt.Printf("  combine activations:    %d\n", activations["combine(t,h,V,eta_k)"])
	micro := 0
	for name, c := range activations {
		if len(name) > 5 && name[:5] == "step(" {
			micro += c
		}
	}
	fmt.Printf("  micro-step activations: %d (R(R+1)/2 = 10 per iteration)\n", micro)
	// Every loop-body task leaves a span named "<while>[<trip>]/<task>".
	inner := 0
	for _, s := range rep.Spans {
		if strings.Contains(s.Name, "]/") {
			inner++
		}
	}
	fmt.Printf("  inner task spans:       %d (combine + micro-step activations)\n", inner)
}
