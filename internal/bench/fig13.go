package bench

import (
	"fmt"

	"mtask/internal/arch"
	"mtask/internal/baseline"
	"mtask/internal/cluster"
	"mtask/internal/core"
	"mtask/internal/cost"
	"mtask/internal/graph"
	"mtask/internal/ode"
)

// Fig13Params scales the scheduler-comparison experiment.
type Fig13Params struct {
	Cores []int
	N     int     // ODE system size
	Steps int     // time steps in the task graph
	Eval  float64 // flops per right-hand-side component
}

// DefaultFig13 reproduces the paper's setup: PABM with K = 8 stage vectors
// and EPOL with R = 8 approximations on the CHiC cluster. The paper's
// speedups (around 100 on 512 cores) imply a compute-heavy right-hand
// side (the BRUSS2D reaction terms with transcendental functions); the
// per-component evaluation cost is set accordingly.
func DefaultFig13() Fig13Params {
	return Fig13Params{Cores: []int{64, 128, 256, 512}, N: 180000, Steps: 2, Eval: 600}
}

// simulateSchedule maps a layered schedule consecutively and simulates it.
func simulateSchedule(model *cost.Model, mach *arch.Machine, s *core.Schedule) (float64, error) {
	mp, err := core.Map(s, mach, core.Consecutive{})
	if err != nil {
		return 0, err
	}
	prog, _, err := cluster.FromMapping(model, mp)
	if err != nil {
		return 0, err
	}
	res, err := cluster.Simulate(model, prog)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// simulateGantt converts a baseline Gantt schedule to a program and
// simulates it.
func simulateGantt(model *cost.Model, mach *arch.Machine, s *baseline.Gantt) (float64, error) {
	prog, _, err := baseline.ToProgram(model, s, core.Consecutive{}.Sequence(mach))
	if err != nil {
		return 0, err
	}
	res, err := cluster.Simulate(model, prog)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// schedulerComparison runs the four scheduling approaches of Fig. 13 on a
// task graph builder and records speedup (left panel style) or time per
// step (right panel style).
func schedulerComparison(id, title string, params Fig13Params, speedup bool,
	build func(p Fig13Params) *graph.Graph) (*Table, error) {

	t := &Table{ID: id, Title: title, XLabel: "cores"}
	if speedup {
		t.YLabel = "speedup over sequential"
	} else {
		t.YLabel = "time per step [s]"
	}
	g := build(params)
	for _, p := range params.Cores {
		mach := arch.CHiC().SubsetCores(p)
		model := &cost.Model{Machine: mach}
		seqStep := model.CompTime(g.TotalWork(), 1) / float64(params.Steps)

		record := func(label string, makespan float64, err error) error {
			if err != nil {
				return fmt.Errorf("%s @%d: %w", label, p, err)
			}
			perStep := makespan / float64(params.Steps)
			if speedup {
				t.AddPoint(label, float64(p), seqStep/perStep)
			} else {
				t.AddPoint(label, float64(p), perStep)
			}
			return nil
		}

		dp, err := core.DataParallel(model, g, p)
		if err != nil {
			return nil, err
		}
		ms, err := simulateSchedule(model, mach, dp)
		if err := record("data-parallel", ms, err); err != nil {
			return nil, err
		}

		tp, err := (&core.Scheduler{Model: model}).Schedule(g, p)
		if err != nil {
			return nil, err
		}
		ms, err = simulateSchedule(model, mach, tp)
		if err := record("task-parallel", ms, err); err != nil {
			return nil, err
		}

		cpa, err := baseline.CPA(model, g, p)
		if err != nil {
			return nil, err
		}
		ms, err = simulateGantt(model, mach, cpa)
		if err := record("CPA", ms, err); err != nil {
			return nil, err
		}

		cpr, err := baseline.CPR(model, g, p)
		if err != nil {
			return nil, err
		}
		ms, err = simulateGantt(model, mach, cpr)
		if err := record("CPR", ms, err); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Fig13Left reproduces Fig. 13 (left): speedups of the PABM method with
// K = 8 stage vectors on the CHiC cluster under the four scheduling
// approaches. Expected shape: CPA is not competitive (over-allocation
// idle time); CPR tracks the layer-based task-parallel schedule; dp falls
// behind at scale.
func Fig13Left(params Fig13Params) (*Table, error) {
	return schedulerComparison("fig13-left",
		"Scheduler comparison: PABM K=8 on CHiC (speedups)", params, true,
		func(p Fig13Params) *graph.Graph {
			return ode.BuildPABGraph(p.N, p.Eval, 8, 2, p.Steps)
		})
}

// Fig13Right reproduces Fig. 13 (right): execution time per time step of
// the EPOL method with R = 8 approximations on the CHiC cluster. Expected
// shape: CPR allocates the longest chain almost all cores and ends up
// slower than pure data parallelism; CPA's mixed schedule and the
// layer-based schedule do well.
func Fig13Right(params Fig13Params) (*Table, error) {
	return schedulerComparison("fig13-right",
		"Scheduler comparison: EPOL R=8 on CHiC (time per step)", params, false,
		func(p Fig13Params) *graph.Graph {
			return ode.BuildEPOLGraph(p.N, p.Eval, 8, p.Steps)
		})
}
