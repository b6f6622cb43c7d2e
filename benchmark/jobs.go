package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"mtask/benchmark/report"
	"mtask/internal/arch"
	"mtask/internal/dynsched"
	"mtask/internal/graph"
	"mtask/internal/obs"
	"mtask/internal/plan"
	"mtask/internal/runtime"
)

// jobsTrace replays an imbalanced arrival trace through the two-level
// machine scheduler on CHiC[8 nodes]: two heavy scalable jobs that want the
// whole machine and a seeded set of light single-node jobs arriving in two
// bursts around them. Task bodies sleep Work/groupCores, so the wall clock
// measures the allocator's decisions (moldable admission sizing, backfill,
// grow/shrink at layer barriers) and their overhead, not compute. One
// operation is one replay of the trace; its latency is the makespan.
type jobsTrace struct {
	m       *arch.Machine
	planner *plan.Planner // shared by every replay, as an allocator's is
	jobs    []dynsched.Job
	solo    []time.Duration // each job alone on the whole machine
}

// slowdownFloor is τ of the bounded slowdown max(turnaround, τ)/max(solo, τ):
// jobs far shorter than τ cannot dominate the mean with ratios of tiny waits.
const slowdownFloor = 10 * time.Millisecond

// ladder is a stages-deep graph of two parallel tasks per stage with full
// bipartite edges between stages: exactly `stages` layers, one resize
// opportunity per boundary. work is sleep-nanoseconds per task on one core.
func ladder(name string, stages int, work float64) *graph.Graph {
	g := graph.New(name)
	var prev [2]graph.TaskID
	for s := 0; s < stages; s++ {
		var cur [2]graph.TaskID
		for i := range cur {
			cur[i] = g.AddTask(&graph.Task{Name: fmt.Sprintf("%s.%d.%d", name, s, i), Kind: graph.KindBasic, Work: work})
		}
		if s > 0 {
			for _, p := range prev {
				for _, c := range cur {
					g.MustEdge(p, c, 8)
				}
			}
		}
		prev = cur
	}
	return g
}

// sleepBody sleeps a serial floor plus the task's share of work, so a task
// on twice the cores takes about half the wall time.
func sleepBody(t *graph.Task) runtime.TaskFunc {
	const serial = 200 * time.Microsecond
	return func(tc *runtime.TaskCtx) error {
		if t.Kind == graph.KindBasic {
			time.Sleep(serial + time.Duration(t.Work)/time.Duration(tc.Group.Size()))
		}
		return nil
	}
}

// generateJobs draws the trace: its shape is fixed, the seed moves the
// light jobs' arrivals and sizes.
func generateJobs(rng *rand.Rand, sz sizes) []dynsched.Job {
	jobs := []dynsched.Job{
		{Name: "H1", Graph: ladder("H1", sz.jobStages, sz.jobWork), MinNodes: 2, MaxNodes: 8},
		{Name: "H2", Graph: ladder("H2", sz.jobStages, sz.jobWork), Arrival: 60 * time.Millisecond, MinNodes: 2, MaxNodes: 8},
	}
	for i := 0; i < sz.jobLights; i++ {
		burst := 10 * time.Millisecond // while H1 runs alone
		if i >= sz.jobLights/2 {
			burst = 80 * time.Millisecond // while H1 and H2 share the machine
		}
		name := fmt.Sprintf("L%d", i+1)
		jobs = append(jobs, dynsched.Job{
			Name:     name,
			Arrival:  burst + time.Duration(rng.Intn(6))*time.Millisecond,
			Graph:    ladder(name, 2, (6+4*rng.Float64())*1e6),
			MinNodes: 1, MaxNodes: 2,
		})
	}
	for i := range jobs {
		jobs[i].Body = sleepBody
	}
	return jobs
}

func (j *jobsTrace) setup(ctx context.Context, rng *rand.Rand, sz sizes) error {
	j.m = arch.CHiC().Subset(8)
	j.planner = plan.New()
	j.jobs = generateJobs(rng, sz)
	j.solo = make([]time.Duration, len(j.jobs))
	for i, job := range j.jobs {
		mp, err := j.planner.PlanPartition(ctx, job.Graph, j.m, j.m.Nodes)
		if err != nil {
			return err
		}
		w, err := runtime.NewWorld(mp.Schedule.P)
		if err != nil {
			return err
		}
		rep, err := runtime.ExecuteCtx(ctx, w, mp.Schedule, job.Body)
		if err != nil {
			return err
		}
		j.solo[i] = rep.Wall
	}
	res, err := j.block(ctx, nil, 0) // warm-up
	if err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("warm-up failed: %s", res.firstFail)
	}
	return nil
}

func (j *jobsTrace) block(ctx context.Context, p *probe, rep int) (blockResult, error) {
	var res blockResult
	alloc, err := dynsched.NewAllocator(j.m, j.planner)
	if err != nil {
		return res, err
	}
	var rec *obs.Recorder
	if p != nil {
		rec = obs.New(0)
		alloc.PlanOpts = []plan.Option{plan.WithTrace(rec)}
	}
	op := p.begin("op", noSpan, rep)
	t0 := time.Now()
	results, err := alloc.RunTrace(ctx, j.jobs)
	res.wall = time.Since(t0)
	p.end(op)
	if err != nil {
		return res, err
	}

	var makespan, busy time.Duration
	var waits, slowdowns []float64
	grows, shrinks, backfills, resizes := 0, 0, 0, 0
	for i, r := range results {
		job := j.jobs[i]
		switch {
		case r.Err != nil:
			res.fail("job %s: %v", r.Name, r.Err)
			continue
		case r.Report.Layers != job.Graph.Len()/2:
			res.fail("job %s completed %d of %d layers", r.Name, r.Report.Layers, job.Graph.Len()/2)
		case r.InitialNodes < job.MinNodes || r.InitialNodes > job.MaxNodes || r.Started < r.Submitted || r.Done < r.Started:
			res.fail("job %s: admitted on %d nodes, submitted %v started %v done %v", r.Name, r.InitialNodes, r.Submitted, r.Started, r.Done)
		}
		if r.Done > makespan {
			makespan = r.Done
		}
		b, _, _ := r.Report.Utilization()
		busy += b
		turnaround, solo := r.Turnaround(), j.solo[i]
		if turnaround < slowdownFloor {
			turnaround = slowdownFloor
		}
		if solo < slowdownFloor {
			solo = slowdownFloor
		}
		slowdowns = append(slowdowns, float64(turnaround)/float64(solo))
		waits = append(waits, millis(r.Wait()))
		grows += r.Grows
		shrinks += r.Shrinks
		resizes += r.Report.Resizes
		if r.Backfilled {
			backfills++
		}
		p.add("dynsched.wait", op, rep, t0.Add(r.Submitted), t0.Add(r.Started))
		p.add("dynsched.job", op, rep, t0.Add(r.Started), t0.Add(r.Done))
	}
	res.lat = []time.Duration{makespan}
	if p == nil || len(slowdowns) == 0 {
		return res, nil
	}

	mean, max := 0.0, 0.0
	for _, s := range slowdowns {
		mean += s / float64(len(slowdowns))
		if s > max {
			max = s
		}
	}
	p.observe("dynsched.mean_bounded_slowdown", mean)
	p.observe("dynsched.max_bounded_slowdown", max)
	p.observe("dynsched.utilization", float64(busy)/float64(time.Duration(j.m.TotalCores())*makespan))
	p.observe("dynsched.wait_p50_ms", report.Median(waits))
	p.observe("dynsched.grows", float64(grows))
	p.observe("dynsched.shrinks", float64(shrinks))
	p.observe("dynsched.backfills", float64(backfills))
	p.observe("runtime.resizes", float64(resizes))
	counters := rec.Metrics()
	observePlanCounters(p, counters, nil)
	p.observe("plan.partition_plans", float64(counters["plan.cache_hits"]+counters["plan.cache_misses"]))
	return res, nil
}

func (j *jobsTrace) finish(*probe) error { return nil }
