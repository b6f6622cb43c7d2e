package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"mtask/internal/arch"
	"mtask/internal/core"
	"mtask/internal/graph"
	"mtask/internal/ode"
	"mtask/internal/runtime"
)

// odeLayered runs the four paper solver graphs with real vector payloads on
// the default layered executor: every task does an Allgather of its n-vector,
// an AllreduceMax and a Barrier, so kernels and collectives dominate and
// planning and dispatch are noise. One operation is the four-solver suite,
// each planned cold and executed; its latency is the suite's time to
// solution.
type odeLayered struct {
	n       int
	m       *arch.Machine
	solvers []odeSolver
	tasks   int     // source tasks of the suite
	refMS   float64 // the plain single-threaded run of the suite: its four references
}

type odeSolver struct {
	g    *graph.Graph
	want map[graph.TaskID][]float64 // ode.Reference: the sequential oracle
}

func (o *odeLayered) setup(ctx context.Context, rng *rand.Rand, sz sizes) error {
	// The seed moves the system size by at most 0.5%.
	o.n = sz.odeN + rng.Intn(sz.odeN/100+1) - sz.odeN/200
	o.m = arch.CHiC().SubsetCores(ranks)
	const evalFlops = 600
	o.solvers, o.tasks, o.refMS = nil, 0, 0
	for _, g := range []*graph.Graph{
		ode.BuildEPOLGraph(o.n, evalFlops, 8, sz.odeSteps),
		ode.BuildIRKGraph(o.n, evalFlops, 4, 2, sz.odeSteps),
		ode.BuildDIIRKGraph(o.n, evalFlops, 4, 2, sz.odeSteps),
		ode.BuildPABGraph(o.n, evalFlops, 8, 2, sz.odeSteps),
	} {
		t0 := time.Now()
		want := ode.Reference(g, o.n)
		o.refMS += millis(time.Since(t0))
		o.tasks += g.Len()
		o.solvers = append(o.solvers, odeSolver{g: g, want: want})
	}
	res, err := o.block(ctx, nil, 0) // warm-up
	if err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("warm-up failed: %s", res.firstFail)
	}
	return nil
}

func (o *odeLayered) block(ctx context.Context, p *probe, rep int) (blockResult, error) {
	var res blockResult
	states := make([]*ode.ExecState, len(o.solvers))
	scheds := make([]*core.Schedule, len(o.solvers))
	reports := make([]*runtime.Report, len(o.solvers))

	t0 := time.Now()
	ot := newOpTrace(p)
	op := p.begin("op", noSpan, rep)
	for i, s := range o.solvers {
		mp, err := coldPlan(ctx, p, ot, op, rep, s.g, o.m)
		if err != nil {
			return res, err
		}
		scheds[i] = mp.Schedule
		states[i] = ode.NewExecState(s.g, o.n)
		if reports[i], err = execute(ctx, p, ot, op, rep, mp.Schedule, states[i].Body); err != nil {
			return res, err
		}
	}
	p.end(op)
	res.wall = time.Since(t0)
	res.lat = []time.Duration{res.wall}

	for i, s := range o.solvers {
		if reports[i].Layers != len(scheds[i].Layers) {
			res.fail("%s executed %d of %d layers", s.g.Name, reports[i].Layers, len(scheds[i].Layers))
			break
		}
		if err := ode.CompareOutputs(s.want, states[i].Outputs()); err != nil {
			res.fail("%s differs from the sequential reference: %v", s.g.Name, err)
			break
		}
	}
	if p == nil {
		return res, nil
	}

	var span time.Duration
	peak := 0
	replay := p.begin("replay", noSpan, rep)
	for _, s := range o.solvers {
		sched, err := replayPlanStages(ctx, p, replay, rep, s.g, o.m, ranks)
		if err != nil {
			return res, err
		}
		sp, pk, err := replayExec(ctx, sched, ode.NewExecState(s.g, o.n).Body)
		if err != nil {
			return res, err
		}
		span += sp
		if pk > peak {
			peak = pk
		}
	}
	p.end(replay)
	ot.observe(p, o.tasks, o.refMS)
	p.observe("runtime.span_ms", millis(span))
	p.observe("runtime.peak_goroutines", float64(peak))
	return res, nil
}

func (o *odeLayered) finish(p *probe) error { return probeCollectives(p) }
