package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"mtask/internal/arch"
	"mtask/internal/graph"
	"mtask/internal/ode"
	"mtask/internal/plan"
	"mtask/internal/runtime"
)

// libWavefront is the library path on tiny bodies: a ~200k-task unrolled
// solver graph is planned cold by a fresh planner and executed by the
// persistent-worker wavefront dispatcher, so graph/core planning and
// runtime dispatch do almost all the work and the kernels almost none.
// One operation is one plan+execute repetition; its latency is the time to
// solution.
type libWavefront struct {
	g     *graph.Graph
	m     *arch.Machine
	want  []float64     // ode.ScaledReference: the sequential oracle
	refMS float64       // the plain single-threaded run of the same problem
	warm  *plan.Planner // holds g, for the cache-hit replay
}

func (l *libWavefront) setup(ctx context.Context, rng *rand.Rand, sz sizes) error {
	// The seed moves the size by at most 0.5% (one solver step at full
	// size): inputs differ between seeds, the work barely does.
	l.g = ode.ScaledSolverGraph(sz.libTasks + sz.libTasks/200*(rng.Intn(3)-1))
	l.m = arch.CHiC().SubsetCores(ranks)
	t0 := time.Now()
	l.want = ode.ScaledReference(l.g)
	l.refMS = millis(time.Since(t0))
	l.warm = plan.New()
	if _, err := l.warm.Plan(ctx, l.g, l.m); err != nil {
		return err
	}
	res, err := l.block(ctx, nil, 0) // warm-up
	if err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("warm-up failed: %s", res.firstFail)
	}
	return nil
}

func (l *libWavefront) block(ctx context.Context, p *probe, rep int) (blockResult, error) {
	var res blockResult
	t0 := time.Now()
	ot := newOpTrace(p)
	op := p.begin("op", noSpan, rep)
	mp, err := coldPlan(ctx, p, ot, op, rep, l.g, l.m)
	if err != nil {
		return res, err
	}
	st := ode.NewScaledExecState(l.g)
	execd, err := execute(ctx, p, ot, op, rep, mp.Schedule, st.Body, runtime.WithWavefront(), runtime.WithoutTimeline())
	if err != nil {
		return res, err
	}
	p.end(op)
	res.wall = time.Since(t0)
	res.lat = []time.Duration{res.wall}

	if execd.Layers != len(mp.Schedule.Layers) {
		res.fail("executed %d of %d layers", execd.Layers, len(mp.Schedule.Layers))
	} else if err := ode.CompareScaledOutputs(l.want, st.Outputs()); err != nil {
		res.fail("output differs from the sequential reference: %v", err)
	}
	if p == nil {
		return res, nil
	}

	ot.observe(p, l.g.Len(), l.refMS)

	replay := p.begin("replay", noSpan, rep)
	sched, err := replayPlanStages(ctx, p, replay, rep, l.g, l.m, ranks)
	if err != nil {
		return res, err
	}
	if err := replayHit(ctx, p, replay, rep, l.warm, l.g, l.m); err != nil {
		return res, err
	}
	p.end(replay)
	span, peak, err := replayExec(ctx, sched, ode.NewScaledExecState(l.g).Body, runtime.WithWavefront())
	if err != nil {
		return res, err
	}
	p.observe("runtime.span_ms", millis(span))
	p.observe("runtime.peak_goroutines", float64(peak))
	return res, nil
}

func (l *libWavefront) finish(p *probe) error { return probeCollectives(p) }
