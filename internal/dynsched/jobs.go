package dynsched

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"mtask/internal/arch"
	"mtask/internal/core"
	"mtask/internal/graph"
	"mtask/internal/obs"
	"mtask/internal/plan"
	"mtask/internal/runtime"
)

// This file is the second scheduling level of the paper's model: where
// the layer-based schedule places tasks within a job, Allocator schedules
// jobs within a machine. A stream of M-task jobs is admitted onto
// whole-node partitions of one machine; each job's partition size is
// picked by a moldable speedup model (planner-predicted makespans at
// candidate sizes, kept while the marginal efficiency of growing stays
// above a floor), its planned layer schedule runs inside the partition via
// the ordinary executor, and running jobs are grown and shrunk at layer
// barriers — through plan.Planner.PlanPartition and the executor's
// runtime.WithResizer hook — as other jobs arrive and finish. This is the
// two-level scheme of "Scalable Hierarchical Scheduling for Malleable
// Parallel Jobs" built from the repo's existing planning and
// degrade-and-replan machinery.

// DefaultMaxBypass is the backfill fairness bound: a queued job at the
// head may be bypassed by backfilled later jobs at most this many times
// before backfilling pauses until the head is admitted.
const DefaultMaxBypass = 4

// DefaultEfficiencyFloor is the moldable sizing threshold: the partition
// keeps doubling only while each doubling retains at least this fraction
// of ideal speedup.
const DefaultEfficiencyFloor = 0.5

// Job is one M-task program submitted to a machine-level Allocator.
type Job struct {
	Name string

	// Graph and Body are the program: the M-task DAG and its SPMD task
	// bodies, exactly as passed to the planner and executor for a solo run.
	Graph *graph.Graph
	Body  func(t *graph.Task) runtime.TaskFunc

	// Arrival is the job's submission offset in a RunTrace replay
	// (ignored by Submit).
	Arrival time.Duration

	// MinNodes and MaxNodes bound the moldable sizing in whole nodes.
	// Zero means 1 and the whole machine respectively.
	MinNodes int
	MaxNodes int

	// Rigid pins the job to its admission partition: the allocator never
	// grows or shrinks it. Rigid jobs may also run under execution modes
	// without layer barriers (wavefront).
	Rigid bool
}

// ResizeEvent records one applied grow or shrink of a running job.
type ResizeEvent struct {
	// Barrier is the completed-layer checkpoint the resize applied at.
	Barrier int
	// FromNodes and ToNodes are the partition sizes around the resize.
	FromNodes, ToNodes int
	// At is the offset from the allocator epoch.
	At time.Duration
}

// JobResult is the outcome of one job: when it waited, started and
// finished (offsets from the allocator epoch), how its partition evolved,
// and the execution report of its run.
type JobResult struct {
	Name string

	Submitted time.Duration
	Started   time.Duration
	Done      time.Duration

	// InitialNodes is the moldable admission size; FinalNodes the size at
	// completion; Cores the final size in cores.
	InitialNodes int
	FinalNodes   int
	Cores        int

	// Backfilled reports admission ahead of an earlier-queued job;
	// Bypassed counts how often this job, while at the queue head, was
	// bypassed by a backfill (bounded by Allocator.MaxBypass).
	Backfilled bool
	Bypassed   int

	// Resizes lists the applied grows and shrinks in order; Grows and
	// Shrinks count them.
	Resizes []ResizeEvent
	Grows   int
	Shrinks int

	Report *runtime.Report
	Err    error
}

// Wait returns the time the job spent queued before admission.
func (r *JobResult) Wait() time.Duration { return r.Started - r.Submitted }

// Turnaround returns the time from submission to completion.
func (r *JobResult) Turnaround() time.Duration { return r.Done - r.Submitted }

// jobState is the allocator-side record of one submitted job. The
// partition fields are guarded by Allocator.mu and obey the invariant
// owned == max(nodes, desired): a pending grow reserves its nodes at
// decision time (so they cannot be double-allocated), a pending shrink
// releases them only when applied at a layer barrier.
type jobState struct {
	job Job
	res *JobResult
	ctx context.Context

	nodes    int // partition size the current schedule runs on
	desired  int // target size; != nodes means a resize is pending
	owned    int // nodes charged to this job (== max(nodes, desired))
	minN     int
	maxN     int
	bypassed int // backfill bypasses suffered at the queue head

	traceStart int64 // allocator-recorder timestamp of admission

	done     chan *JobResult // buffered(1); receives the result once
	finished chan struct{}   // closed when the result is delivered
}

// Allocator is the machine-level job scheduler: it admits a stream of
// M-task jobs onto whole-node partitions of one machine, sizes each
// partition with the moldable speedup model, backfills around a waiting
// head job within a bounded-bypass fairness budget, and grows/shrinks
// running (non-rigid) jobs at layer barriers as jobs arrive and finish.
// Configure the exported fields before Start/Submit/RunTrace; they must
// not change afterwards.
type Allocator struct {
	// Machine is the machine being scheduled; partitions are whole nodes.
	Machine *arch.Machine

	// Planner plans admissions and resizes. Sharing one planner across
	// the allocator's lifetime is what makes sizing probes and repeated
	// resizes cheap (schedule cache, incremental layer reuse).
	Planner *plan.Planner

	// MaxBypass bounds how often the queue head may be bypassed by
	// backfills (a later queued job admitted first fit in queue order
	// while the head does not fit) before backfilling pauses: the
	// starvation guard. Zero means DefaultMaxBypass; negative means
	// unlimited.
	MaxBypass int

	// EfficiencyFloor tunes moldable sizing (see DefaultEfficiencyFloor);
	// zero means the default.
	EfficiencyFloor float64

	// PlanOpts are applied to every admission and resize plan.
	PlanOpts []plan.Option

	// ExecOpts are applied to every job execution (e.g. a fault policy or
	// runtime.WithoutTimeline). The allocator appends its own resize hook
	// for non-rigid jobs.
	ExecOpts []runtime.ExecOption

	// Trace records machine-level scheduling events on its control track:
	// job spans ("job:<name>", category "jobs"), admit/backfill/grow/
	// shrink instants, the jobs.* counters and the queue-depth and
	// free-node samples. Nil records nothing.
	Trace *obs.Recorder

	// JobTrace, when non-nil, supplies a per-job recorder (sized for the
	// given core count) that is attached to the job's execution — each job
	// becomes its own process row in a Chrome trace export.
	JobTrace func(name string, cores int) *obs.Recorder

	mu        sync.Mutex
	epoch     time.Time
	freeNodes int
	queue     []*jobState
	running   map[*jobState]struct{}
	results   []*JobResult
	wg        sync.WaitGroup
	started   bool
}

// NewAllocator returns an Allocator over the machine with default
// fairness and sizing parameters. The planner may be shared with other
// users.
func NewAllocator(m *arch.Machine, p *plan.Planner) (*Allocator, error) {
	if m == nil || p == nil {
		return nil, fmt.Errorf("dynsched: allocator needs a machine and a planner")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Allocator{Machine: m, Planner: p}, nil
}

// Start anchors the allocator epoch and makes the machine's nodes
// available. It is idempotent; Submit and RunTrace call it implicitly.
func (a *Allocator) Start() error {
	if a.Machine == nil || a.Planner == nil {
		return fmt.Errorf("dynsched: allocator needs a machine and a planner")
	}
	if err := a.Machine.Validate(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.started {
		a.started = true
		a.epoch = time.Now()
		a.freeNodes = a.Machine.Nodes
		a.running = make(map[*jobState]struct{})
	}
	return nil
}

// sinceLocked returns the offset from the allocator epoch; callers hold mu.
func (a *Allocator) sinceLocked() time.Duration { return time.Since(a.epoch) }

func (a *Allocator) maxBypass() int {
	switch {
	case a.MaxBypass == 0:
		return DefaultMaxBypass
	case a.MaxBypass < 0:
		return int(^uint(0) >> 1) // unlimited
	}
	return a.MaxBypass
}

// Submit validates and enqueues a job; the returned channel receives its
// JobResult once (and is then closed). Canceling ctx cancels the job
// whether it is still queued or already running; a running job is
// interrupted at the executor's next cancellation point and its nodes are
// released, including any reserved by a pending grow.
func (a *Allocator) Submit(ctx context.Context, job Job) (<-chan *JobResult, error) {
	if err := a.Start(); err != nil {
		return nil, err
	}
	if job.Graph == nil || job.Body == nil {
		return nil, fmt.Errorf("dynsched: job %q needs a graph and a body", job.Name)
	}
	if job.Name == "" {
		job.Name = job.Graph.Name
	}
	minN, maxN := job.MinNodes, job.MaxNodes
	if minN < 1 {
		minN = 1
	}
	if maxN < 1 || maxN > a.Machine.Nodes {
		maxN = a.Machine.Nodes
	}
	if minN > a.Machine.Nodes {
		return nil, fmt.Errorf("dynsched: job %q wants at least %d nodes, machine %q has %d",
			job.Name, minN, a.Machine.Name, a.Machine.Nodes)
	}
	if minN > maxN {
		return nil, fmt.Errorf("dynsched: job %q has MinNodes %d > MaxNodes %d", job.Name, minN, maxN)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	js := &jobState{
		job:      job,
		ctx:      ctx,
		minN:     minN,
		maxN:     maxN,
		res:      &JobResult{Name: job.Name},
		done:     make(chan *JobResult, 1),
		finished: make(chan struct{}),
	}
	a.wg.Add(1)
	a.mu.Lock()
	js.res.Submitted = a.sinceLocked()
	a.queue = append(a.queue, js)
	a.Trace.Counter("jobs.submitted").Add(1)
	a.Trace.Instant("submit:"+job.Name, "jobs", obs.ControlRank, a.Trace.Now())
	a.sampleLocked()
	a.rebalanceLocked()
	a.mu.Unlock()
	if ctx.Done() != nil {
		// Sweep the queue when the job is canceled while waiting, so a
		// canceled queued job does not linger until the next event.
		go func() {
			select {
			case <-ctx.Done():
				a.rebalance()
			case <-js.finished:
			}
		}()
	}
	return js.done, nil
}

// Wait blocks until every submitted job has finished and returns the
// results in completion order.
func (a *Allocator) Wait() []*JobResult {
	a.wg.Wait()
	return a.Results()
}

// Results returns the finished jobs' results in completion order.
func (a *Allocator) Results() []*JobResult {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]*JobResult(nil), a.results...)
}

// RunTrace replays an arrival trace: jobs are submitted at their Arrival
// offsets from the allocator epoch (in arrival order) and the call blocks
// until all of them finished. Results are returned in the input order of
// jobs. Canceling ctx cancels queued and running jobs; the replay still
// returns a result per job (with the cancellation recorded as its error).
func (a *Allocator) RunTrace(ctx context.Context, jobs []Job) ([]*JobResult, error) {
	if err := a.Start(); err != nil {
		return nil, err
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return jobs[order[x]].Arrival < jobs[order[y]].Arrival })

	a.mu.Lock()
	epoch := a.epoch
	a.mu.Unlock()

	chans := make([]<-chan *JobResult, len(jobs))
	for _, i := range order {
		if wait := time.Until(epoch.Add(jobs[i].Arrival)); wait > 0 && ctx.Err() == nil {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
			}
		}
		ch, err := a.Submit(ctx, jobs[i])
		if err != nil {
			return nil, fmt.Errorf("dynsched: trace replay: %w", err)
		}
		chans[i] = ch
	}
	results := make([]*JobResult, len(jobs))
	for i, ch := range chans {
		results[i] = <-ch
	}
	return results, nil
}

// Gantt renders the multi-job machine timeline through the shared text
// renderer: one row per finished job spanning admission to completion,
// annotated with its partition evolution. Call after the jobs of interest
// finished.
func (a *Allocator) Gantt(width int) string {
	results := a.Results()
	rows := make([]obs.Row, 0, len(results))
	span := 0.0
	for _, r := range results {
		detail := fmt.Sprintf("(%d→%d nodes", r.InitialNodes, r.FinalNodes)
		if r.Grows+r.Shrinks > 0 {
			detail += fmt.Sprintf(", %d grows/%d shrinks", r.Grows, r.Shrinks)
		}
		if r.Backfilled {
			detail += ", backfilled"
		}
		detail += ")"
		if r.Err != nil {
			detail += " FAILED"
		}
		rows = append(rows, obs.Row{Name: r.Name, Start: r.Started.Seconds(), End: r.Done.Seconds(), Detail: detail})
		if e := r.Done.Seconds(); e > span {
			span = e
		}
	}
	head := fmt.Sprintf("job gantt on %q (%d nodes): %d jobs over %.4g s\n",
		a.Machine.Name, a.Machine.Nodes, len(rows), span)
	return head + obs.RenderRows(rows, width, span)
}

// rebalance runs the scheduling pass under the allocator lock.
func (a *Allocator) rebalance() {
	a.mu.Lock()
	a.rebalanceLocked()
	a.mu.Unlock()
}

// rebalanceLocked is the event handler behind every allocator decision
// (submission, job completion, applied shrink, cancellation): admit from
// the queue head while it fits, otherwise request shrinks toward the
// equal share and backfill within the fairness budget, and hand free
// nodes to running jobs when the queue is empty.
func (a *Allocator) rebalanceLocked() {
	// Sweep canceled queued jobs first so they cannot absorb admissions.
	kept := a.queue[:0]
	for _, js := range a.queue {
		if js.ctx.Err() != nil {
			a.finishQueuedLocked(js, fmt.Errorf("dynsched: job %q canceled while queued: %w", js.job.Name, js.ctx.Err()))
			continue
		}
		kept = append(kept, js)
	}
	a.queue = kept

	for len(a.queue) > 0 {
		head := a.queue[0]
		if a.freeNodes < head.minN {
			break
		}
		a.queue = a.queue[1:]
		a.admitLocked(head, false)
	}
	if len(a.queue) > 0 {
		a.requestShrinksLocked()
		a.backfillLocked(a.queue[0])
		return
	}
	a.requestGrowsLocked()
	a.rebalanceRunningLocked()
}

// admitLocked sizes the job's partition with the moldable model, charges
// the nodes and starts the execution goroutine.
func (a *Allocator) admitLocked(js *jobState, backfilled bool) {
	mp, n, err := a.moldLocked(js)
	if err != nil {
		a.finishQueuedLocked(js, fmt.Errorf("dynsched: admitting job %q: %w", js.job.Name, err))
		return
	}
	js.nodes, js.desired, js.owned = n, n, n
	a.freeNodes -= n
	a.running[js] = struct{}{}
	js.res.Started = a.sinceLocked()
	js.res.InitialNodes = n
	js.res.Backfilled = backfilled
	js.traceStart = a.Trace.Now()
	verb := "admit"
	if backfilled {
		verb = "backfill"
		a.Trace.Counter("jobs.backfills").Add(1)
	}
	a.Trace.Counter("jobs.admitted").Add(1)
	a.Trace.Instant(fmt.Sprintf("%s:%s(%d nodes)", verb, js.job.Name, n), "jobs", obs.ControlRank, a.Trace.Now())
	a.sampleLocked()
	go a.runJob(js, mp)
}

// runJob executes one admitted job inside its partition. The world is
// sized to the whole machine so resized schedules of any partition size
// fit; a schedule only ever occupies its own P symbolic cores.
func (a *Allocator) runJob(js *jobState, mp *core.Mapping) {
	w, err := runtime.NewWorld(a.Machine.TotalCores())
	if err != nil {
		a.finish(js, nil, err)
		return
	}
	opts := append([]runtime.ExecOption(nil), a.ExecOpts...)
	if !js.job.Rigid {
		opts = append(opts, runtime.WithResizer(a.resizerFor(js)))
	}
	if a.JobTrace != nil {
		if rec := a.JobTrace(js.job.Name, a.Machine.TotalCores()); rec != nil {
			opts = append(opts, runtime.WithRecorder(rec))
		}
	}
	rep, err := runtime.ExecuteCtx(js.ctx, w, mp.Schedule, js.job.Body, opts...)
	a.finish(js, rep, err)
}

// resizerFor returns the runtime.Resizer closure of one job: at each
// layer barrier it observes the allocator's desired partition size, plans
// the graph on the new partition, and applies the resize — releasing the
// shrunk-away nodes back to the allocator, or occupying the nodes the
// allocator reserved for the grow.
func (a *Allocator) resizerFor(js *jobState) runtime.Resizer {
	return func(ctx context.Context, completed int) (*core.Schedule, error) {
		a.mu.Lock()
		d, cur := js.desired, js.nodes
		a.mu.Unlock()
		if d == cur {
			return nil, nil
		}
		mp, err := a.Planner.PlanPartition(ctx, js.job.Graph, a.Machine, d, a.PlanOpts...)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			// A failed resize plan must not kill a healthy job: revoke the
			// pending resize (releasing any reserved grow nodes) and keep
			// running at the current size.
			a.mu.Lock()
			a.setDesiredLocked(js, js.nodes)
			a.rebalanceLocked()
			a.mu.Unlock()
			return nil, nil
		}
		a.mu.Lock()
		if js.desired != d {
			// The target moved while planning; the next barrier reconsiders.
			a.mu.Unlock()
			return nil, nil
		}
		grow := d > js.nodes
		if grow {
			js.res.Grows++
			a.Trace.Counter("jobs.grows").Add(1)
			a.Trace.Instant(fmt.Sprintf("grow:%s(%d→%d nodes)", js.job.Name, js.nodes, d), "jobs", obs.ControlRank, a.Trace.Now())
		} else {
			a.freeNodes += js.nodes - d
			js.res.Shrinks++
			a.Trace.Counter("jobs.shrinks").Add(1)
			a.Trace.Instant(fmt.Sprintf("shrink:%s(%d→%d nodes)", js.job.Name, js.nodes, d), "jobs", obs.ControlRank, a.Trace.Now())
		}
		js.res.Resizes = append(js.res.Resizes, ResizeEvent{
			Barrier: completed, FromNodes: js.nodes, ToNodes: d, At: a.sinceLocked(),
		})
		js.nodes, js.owned = d, d
		a.sampleLocked()
		if !grow {
			a.rebalanceLocked() // released nodes may admit the queue head
		}
		a.mu.Unlock()
		return mp.Schedule, nil
	}
}

// setDesiredLocked retargets a job's partition, keeping the ownership
// invariant owned == max(nodes, desired): growing the target reserves the
// extra nodes immediately (freeNodes may only be debited when available —
// callers check), shrinking a pending grow releases its unused reserve.
func (a *Allocator) setDesiredLocked(js *jobState, d int) {
	if d == js.desired {
		return
	}
	newOwned := js.nodes
	if d > newOwned {
		newOwned = d
	}
	a.freeNodes += js.owned - newOwned
	js.owned = newOwned
	js.desired = d
}

// requestShrinksLocked asks running non-rigid jobs to shrink toward the
// equal share until the projected free nodes cover the whole queue's
// minimum demand (dynamic equipartitioning: the fair share counts queued
// jobs too, and one layer barrier frees enough nodes for every waiting
// job at once instead of trickling the head's minimum per barrier).
// Shrinks apply at the jobs' next layer barriers; until then the nodes
// stay charged to their jobs.
func (a *Allocator) requestShrinksLocked() {
	projected := a.freeNodes
	for js := range a.running {
		if js.nodes > js.desired {
			projected += js.nodes - js.desired
		}
	}
	need := -projected
	for _, q := range a.queue {
		need += q.minN
	}
	if need <= 0 {
		return
	}
	share := a.Machine.Nodes / (len(a.running) + len(a.queue))
	if share < 1 {
		share = 1
	}
	a.shrinkDonorsLocked(share, need)
}

// shrinkDonorsLocked lowers the desired size of running non-rigid jobs,
// largest desired first, until need nodes are given up: each donor gives
// at most down to max(its minimum, share).
func (a *Allocator) shrinkDonorsLocked(share, need int) {
	for _, js := range a.runningSorted(false) {
		if need <= 0 {
			break
		}
		if js.job.Rigid {
			continue
		}
		give := min(js.desired-max(js.minN, share), need)
		if give <= 0 {
			continue
		}
		a.setDesiredLocked(js, js.desired-give)
		need -= give
	}
}

// requestGrowsLocked hands free nodes to running non-rigid jobs, one node
// at a time round-robin from the smallest allocation, up to each job's
// maximum. Only called with an empty queue: while a job waits, freed
// nodes are kept for it instead.
func (a *Allocator) requestGrowsLocked() {
	if a.freeNodes <= 0 || len(a.running) == 0 {
		return
	}
	jobs := a.runningSorted(true)
	for a.freeNodes > 0 {
		progress := false
		for _, js := range jobs {
			if a.freeNodes == 0 {
				break
			}
			if js.job.Rigid || js.desired >= js.maxN {
				continue
			}
			a.setDesiredLocked(js, js.desired+1)
			progress = true
		}
		if !progress {
			break
		}
	}
}

// rebalanceRunningLocked shifts nodes between running jobs toward the
// equal share when the queue is empty: a job admitted under-sized
// because free nodes were scarce at that moment would otherwise stay
// small for its whole run while a neighbour keeps more than its share.
// Donors shrink only as far as the measured unmet demand of recipients
// below their share (capped by their maxima), so nodes are never freed
// that nobody can absorb — which would oscillate.
func (a *Allocator) rebalanceRunningLocked() {
	if len(a.running) < 2 {
		return
	}
	share := a.Machine.Nodes / len(a.running)
	if share < 1 {
		share = 1
	}
	demand := -a.freeNodes // free nodes already cover part of the demand
	for js := range a.running {
		if js.job.Rigid {
			continue
		}
		want := share
		if js.maxN < want {
			want = js.maxN
		}
		if js.desired < want {
			demand += want - js.desired
		}
	}
	if demand <= 0 {
		return
	}
	a.shrinkDonorsLocked(share, demand)
}

// backfillLocked admits later queued jobs that fit the free nodes (first
// fit in queue order) while the head's bypass budget lasts. Each
// backfilled admission charges the head one bypass; at MaxBypass the
// backfilling pauses until the head is admitted — the starvation guard.
func (a *Allocator) backfillLocked(head *jobState) {
	limit := a.maxBypass()
	for i := 1; i < len(a.queue) && head.bypassed < limit; {
		js := a.queue[i]
		if js.minN > a.freeNodes {
			i++
			continue
		}
		a.queue = append(a.queue[:i], a.queue[i+1:]...)
		head.bypassed++
		head.res.Bypassed = head.bypassed
		a.admitLocked(js, true)
	}
}

// runningSorted returns the running jobs in a deterministic order: by
// desired size (ascending when asc, else descending), ties by name.
func (a *Allocator) runningSorted(asc bool) []*jobState {
	jobs := make([]*jobState, 0, len(a.running))
	for js := range a.running {
		jobs = append(jobs, js)
	}
	sort.Slice(jobs, func(x, y int) bool {
		if jobs[x].desired != jobs[y].desired {
			if asc {
				return jobs[x].desired < jobs[y].desired
			}
			return jobs[x].desired > jobs[y].desired
		}
		return jobs[x].job.Name < jobs[y].job.Name
	})
	return jobs
}

// sampleLocked records the queue-depth and free-node gauges.
func (a *Allocator) sampleLocked() {
	if a.Trace == nil {
		return
	}
	now := a.Trace.Now()
	a.Trace.CounterSample("jobs.queue_depth", "jobs", obs.ControlRank, now, float64(len(a.queue)))
	a.Trace.CounterSample("jobs.free_nodes", "jobs", obs.ControlRank, now, float64(a.freeNodes))
}

// finishQueuedLocked completes a job that never ran (validation failure
// or cancellation while queued).
func (a *Allocator) finishQueuedLocked(js *jobState, err error) {
	js.res.Started = a.sinceLocked()
	js.res.Done = js.res.Started
	js.res.Err = err
	a.Trace.Counter("jobs.failed").Add(1)
	a.results = append(a.results, js.res)
	a.deliver(js)
}

// finish completes a running job: its nodes (including any reserved by a
// pending grow) return to the machine and the freed capacity is
// rebalanced.
func (a *Allocator) finish(js *jobState, rep *runtime.Report, err error) {
	a.mu.Lock()
	delete(a.running, js)
	a.freeNodes += js.owned
	js.res.FinalNodes = js.nodes
	js.res.Cores = js.nodes * a.Machine.CoresPerNode()
	js.owned, js.nodes, js.desired = 0, 0, 0
	js.res.Done = a.sinceLocked()
	js.res.Report = rep
	js.res.Err = err
	if err != nil {
		a.Trace.Counter("jobs.failed").Add(1)
	} else {
		a.Trace.Counter("jobs.completed").Add(1)
	}
	a.Trace.Span("job:"+js.job.Name, "jobs", obs.ControlRank, -1, -1, js.traceStart, a.Trace.Now())
	a.results = append(a.results, js.res)
	a.sampleLocked()
	a.rebalanceLocked()
	a.mu.Unlock()
	a.deliver(js)
}

// deliver hands the result to the submitter exactly once.
func (a *Allocator) deliver(js *jobState) {
	js.done <- js.res
	close(js.done)
	close(js.finished)
	a.wg.Done()
}
