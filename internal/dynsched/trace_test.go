package dynsched

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"mtask/internal/arch"
	"mtask/internal/graph"
	"mtask/internal/plan"
	"mtask/internal/runtime"
)

// traceBody is the SPMD body of every trace job: each rank sleeps a
// serial floor plus the task's Work (in nanoseconds) divided by its group
// size, so a task on twice the cores finishes in about half the wall time.
// The sleeps model compute; the scheduling decisions are real, so the
// comparison holds on any core count.
func traceBody(t *graph.Task) runtime.TaskFunc {
	const serial = 200 * time.Microsecond
	return func(tc *runtime.TaskCtx) error {
		if t.Kind == graph.KindBasic {
			time.Sleep(serial + time.Duration(t.Work)/time.Duration(tc.Group.Size()))
		}
		return nil
	}
}

// imbalancedTrace is the arrival trace of the jobs-trace benchmark
// workload: two heavy 20-stage jobs that want the whole machine, and
// `lights` single-node jobs arriving in two bursts around them. The seed
// only jitters the light jobs' arrivals and sizes.
func imbalancedTrace(seed int64, lights int) []Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := []Job{
		{Name: "H1", Graph: workLadder("H1", 20, 80e6), Body: traceBody, MinNodes: 2, MaxNodes: 8},
		{Name: "H2", Graph: workLadder("H2", 20, 80e6), Body: traceBody, Arrival: 60 * time.Millisecond, MinNodes: 2, MaxNodes: 8},
	}
	for i := 0; i < lights; i++ {
		burst := 10 * time.Millisecond // while H1 runs alone
		if i >= lights/2 {
			burst = 80 * time.Millisecond // while H1 and H2 share
		}
		arrival := burst + time.Duration(rng.Intn(6))*time.Millisecond
		work := (6 + 4*rng.Float64()) * 1e6
		name := fmt.Sprintf("L%d", i+1)
		jobs = append(jobs, Job{
			Name: name, Graph: workLadder(name, 2, work), Body: traceBody,
			Arrival: arrival, MinNodes: 1, MaxNodes: 2,
		})
	}
	return jobs
}

// jobOutcome is the scheme-independent record of one job's run.
type jobOutcome struct {
	name             string
	turnaround, done time.Duration
	busy             time.Duration // core-time inside task bodies
}

// schemeStats aggregates one scheme's outcomes against the solo times.
type schemeStats struct {
	makespan                  time.Duration
	meanSlowdown, maxSlowdown float64
	utilization               float64
}

// summarize computes makespan, utilization and Feitelson's bounded
// slowdown max(turnaround, τ) / max(solo, τ) with τ = 10 ms, so jobs far
// shorter than τ cannot dominate the mean with ratios of tiny waits.
func summarize(outcomes []jobOutcome, solo map[string]time.Duration, cores int) schemeStats {
	const tau = 10 * time.Millisecond
	var st schemeStats
	var busy time.Duration
	for _, o := range outcomes {
		st.makespan = max(st.makespan, o.done)
		busy += o.busy
		sd := float64(max(o.turnaround, tau)) / float64(max(solo[o.name], tau))
		st.meanSlowdown += sd / float64(len(outcomes))
		st.maxSlowdown = max(st.maxSlowdown, sd)
	}
	st.utilization = float64(busy) / float64(time.Duration(cores)*st.makespan)
	return st
}

// staticPartitions is the baseline: the machine is split into `parts`
// equal node partitions and jobs are served FCFS in arrival order, each on
// one whole partition at the fixed size — no molding, no backfill, no
// resizing.
func staticPartitions(t *testing.T, m *arch.Machine, pl *plan.Planner, jobs []Job, parts int) []jobOutcome {
	t.Helper()
	ctx := context.Background()
	partNodes := m.Nodes / parts
	ordered := append([]Job(nil), jobs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Arrival < ordered[j].Arrival })

	epoch := time.Now()
	queue := make(chan Job)
	go func() {
		defer close(queue)
		for _, j := range ordered {
			time.Sleep(j.Arrival - time.Since(epoch))
			queue <- j
		}
	}()
	var (
		mu       sync.Mutex
		outcomes []jobOutcome
		wg       sync.WaitGroup
	)
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				mp, err := pl.PlanPartition(ctx, j.Graph, m, partNodes)
				if err != nil {
					t.Errorf("static plan %s: %v", j.Name, err)
					continue
				}
				w, _ := runtime.NewWorld(mp.Schedule.P)
				rep, err := runtime.ExecuteCtx(ctx, w, mp.Schedule, j.Body)
				if err != nil {
					t.Errorf("static run %s: %v", j.Name, err)
					continue
				}
				busy, _, _ := rep.Utilization()
				done := time.Since(epoch)
				mu.Lock()
				outcomes = append(outcomes, jobOutcome{j.Name, done - j.Arrival, done, busy})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outcomes
}

// TestTraceBeatsStaticPartitions replays the seed-1 imbalanced arrival
// trace through the two-level scheduler (moldable admission sizing,
// backfill, grow/shrink at layer barriers) and through a static
// equal-partition FCFS baseline on 8 CHiC nodes. The two-level run must
// resize both ways, strictly beat the baseline on makespan, utilization
// and worst-case bounded slowdown, keep the mean bounded slowdown within
// 10% of it (the many light jobs run near parity in both schemes, so a
// strict win there would test timer noise), and keep the worst case under
// 8. Run with -v to see the allocator's Gantt chart.
func TestTraceBeatsStaticPartitions(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock comparison of two schedulers; -race distorts it")
	}
	m := arch.CHiC().Subset(8)
	pl := plan.New()
	ctx := context.Background()
	jobs := imbalancedTrace(1, 10)

	// Each job alone on the whole machine: the slowdown denominators.
	solo := map[string]time.Duration{}
	for _, j := range jobs {
		mp, err := pl.PlanPartition(ctx, j.Graph, m, m.Nodes)
		if err != nil {
			t.Fatal(err)
		}
		w, _ := runtime.NewWorld(mp.Schedule.P)
		start := time.Now()
		if _, err := runtime.ExecuteCtx(ctx, w, mp.Schedule, j.Body); err != nil {
			t.Fatal(err)
		}
		solo[j.Name] = time.Since(start)
	}

	a, err := NewAllocator(m, pl)
	if err != nil {
		t.Fatal(err)
	}
	results, err := a.RunTrace(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var outcomes []jobOutcome
	var grows, shrinks, backfills int
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("two-level job %s failed: %v", r.Name, r.Err)
		}
		busy, _, _ := r.Report.Utilization()
		outcomes = append(outcomes, jobOutcome{r.Name, r.Turnaround(), r.Done, busy})
		grows += r.Grows
		shrinks += r.Shrinks
		if r.Backfilled {
			backfills++
		}
	}
	two := summarize(outcomes, solo, m.TotalCores())
	t.Logf("two-level allocator:\n%s", a.Gantt(92))

	const parts = 4
	static := summarize(staticPartitions(t, m, pl, jobs, parts), solo, m.TotalCores())
	t.Logf("two-level: makespan %v, mean/max bounded slowdown %.2f/%.2f, utilization %.1f%% (%d grows, %d shrinks, %d backfills)",
		two.makespan.Round(time.Millisecond), two.meanSlowdown, two.maxSlowdown, 100*two.utilization, grows, shrinks, backfills)
	t.Logf("static %d-way: makespan %v, mean/max bounded slowdown %.2f/%.2f, utilization %.1f%%",
		parts, static.makespan.Round(time.Millisecond), static.meanSlowdown, static.maxSlowdown, 100*static.utilization)

	if grows < 1 || shrinks < 1 {
		t.Errorf("two-level run saw %d grows / %d shrinks, want at least one of each", grows, shrinks)
	}
	if two.makespan >= static.makespan {
		t.Errorf("two-level makespan %v did not beat the static baseline %v", two.makespan, static.makespan)
	}
	if two.utilization <= static.utilization {
		t.Errorf("two-level utilization %.3f did not beat the static baseline %.3f", two.utilization, static.utilization)
	}
	if two.maxSlowdown >= static.maxSlowdown {
		t.Errorf("two-level max slowdown %.2f did not beat the static baseline %.2f", two.maxSlowdown, static.maxSlowdown)
	}
	if two.meanSlowdown > 1.10*static.meanSlowdown {
		t.Errorf("two-level mean slowdown %.2f is more than 10%% above the static baseline %.2f", two.meanSlowdown, static.meanSlowdown)
	}
	if two.maxSlowdown > 8 {
		t.Errorf("two-level max slowdown %.2f exceeds 8", two.maxSlowdown)
	}
}
