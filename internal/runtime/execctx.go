package runtime

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"mtask/internal/core"
	"mtask/internal/fault"
	"mtask/internal/graph"
	"mtask/internal/obs"
)

// Replanner reschedules the executed graph for the given number of
// surviving symbolic cores; the fault-tolerant executor calls it when a
// core group is lost and the policy enables DegradeAndReplan. The returned
// schedule must preserve the layer partition of the failed one (verified
// with core.SameLayering) — the layer-based algorithm does this naturally
// because layers depend only on the graph structure, not on the core
// count. See plan.Planner.Replan for the standard implementation.
type Replanner func(ctx context.Context, survivors int) (*core.Schedule, error)

// HierarchicalReplanner is the Replanner of ExecuteHierarchicalCtx: it
// reschedules the whole hierarchy (sub-schedules are recomputed for the
// new group sizes).
type HierarchicalReplanner func(ctx context.Context, survivors int) (*core.HierarchicalSchedule, error)

// Resizer makes a running execution malleable: layered execution
// consults it at every interior layer barrier (the same checkpoints that
// make degrade-and-replan sound) with the number of completed layers,
// before the next layer opens, so no body runs during the call. A nil
// schedule means "keep the current one"; a non-nil schedule replaces it
// and the remaining layers run on the new core count — growing or
// shrinking the execution. The returned schedule must preserve the layer
// partition (verified with core.SameLayering) and use at most the world's
// cores. The machine-level job allocator uses this to grow and shrink
// running jobs as other jobs arrive and finish; see plan.Planner's
// PlanPartition for the standard way to produce the resized schedule.
type Resizer func(ctx context.Context, completedLayers int) (*core.Schedule, error)

// ErrResizeInWavefront reports WithResizer combined with WithWavefront. A
// Resizer applies a shrink before it returns (the machine allocator hands
// the cores to another job at once), and a wavefront execution, with
// later-layer tasks in flight at every boundary, would drain them on
// cores that already belong to another job. Wavefront executions are
// moldable (core count fixed at start), not malleable.
var ErrResizeInWavefront = errors.New("runtime: WithResizer requires layered execution (wavefront runs are moldable, not malleable)")

// execConfig collects the resolved fault-tolerance knobs of one execution.
type execConfig struct {
	policy     fault.Policy
	injector   *fault.Injector
	replan     Replanner
	hreplan    HierarchicalReplanner
	resize     Resizer
	grace      time.Duration
	wavefront  bool
	noTimeline bool
	rec        *obs.Recorder

	// The level of the hierarchy this configuration runs: prefix
	// namespaces its task names ("" at the top level, "<composed>[<trip>]/"
	// inside a composed task) and ranks are the world ranks of its
	// symbolic ranks (nil for the identity).
	prefix string
	ranks  []int
	spin   int // barrier busy-spin budget, decided once (barrierSpin)
}

// ExecOption configures ExecuteCtx / ExecuteHierarchicalCtx.
type ExecOption func(*execConfig)

// WithPolicy sets the retry/timeout/escalation policy (default: no
// retries, no timeouts, no degrade-and-replan).
func WithPolicy(p fault.Policy) ExecOption { return func(c *execConfig) { c.policy = p } }

// WithInjector installs a failure injector (for tests and chaos runs).
func WithInjector(in *fault.Injector) ExecOption { return func(c *execConfig) { c.injector = in } }

// WithReplanner installs the degrade-and-replan callback of ExecuteCtx.
func WithReplanner(r Replanner) ExecOption { return func(c *execConfig) { c.replan = r } }

// WithHierarchicalReplanner installs the degrade-and-replan callback of
// ExecuteHierarchicalCtx.
func WithHierarchicalReplanner(r HierarchicalReplanner) ExecOption {
	return func(c *execConfig) { c.hreplan = r }
}

// WithResizer installs a voluntary resize callback consulted at every
// completed layer barrier; see Resizer. Only valid with layered
// execution — combining it with WithWavefront fails the execution with
// ErrResizeInWavefront.
func WithResizer(r Resizer) ExecOption { return func(c *execConfig) { c.resize = r } }

// WithAbandonGrace sets how long each rank worker waits, after aborting a
// timed-out attempt's communicator, for its share of the attempt to return
// before abandoning it (default 1s). Bodies blocked in collectives wake
// immediately; only a body hung in pure computation runs into the grace
// period (and is then leaked — Go provides no way to kill it).
func WithAbandonGrace(d time.Duration) ExecOption {
	return func(c *execConfig) {
		if d > 0 {
			c.grace = d
		}
	}
}

// WithRecorder attaches a trace recorder to the execution: every rank
// goroutine records its task-attempt spans, barrier waits and collective
// counters on its own timeline, and the executor adds retry, replan and
// layer-completion events. A nil recorder is valid and records nothing
// (the no-op fast path adds a single pointer test per instrumented
// site). The recorder must have at least sched.P rank timelines; read it
// only after ExecuteCtx returns.
func WithRecorder(rec *obs.Recorder) ExecOption {
	return func(c *execConfig) { c.rec = rec }
}

// WithoutTimeline drops O(tasks) state from the Report so million-task
// runs stay lean: it retains no TaskSpans (Timeline returns nothing;
// Utilization and the report totals still work) and keeps Tasks entries
// only for tasks with a fault history. Attempt numbers, and with them the
// failure injector's decisions, are the same with and without it.
func WithoutTimeline() ExecOption {
	return func(c *execConfig) { c.noTimeline = true }
}

const defaultAbandonGrace = time.Second

// ExecuteCtx runs a layered schedule on the world; body maps each original
// task to its SPMD implementation (a task without one is an error). It:
//
//   - recovers panics in task bodies into errors with stack capture
//     (a panicking body never crashes the process);
//   - aborts the group communicator of a failed, panicked or timed-out
//     task so its peers cannot deadlock at a collective — the attempt
//     after a failed one runs on a new group communicator;
//   - enforces the policy's per-attempt and per-layer timeouts, and
//     observes the caller's ctx between attempts and through
//     TaskCtx.Ctx (at once, like a timeout, when the policy sets a
//     deadline; see wfDispatcher);
//   - joins the failures of a pass with errors.Join, one
//     "layer L group G: ..." entry per failed task in schedule order;
//   - retries failed tasks per the policy (exponential backoff with
//     deterministic jitter), re-running the whole group attempt;
//   - on exhausted retries with DegradeAndReplan enabled, marks the
//     failing group's cores as lost, asks the Replanner for a schedule on
//     the surviving cores, and resumes from the last completed layer
//     barrier (layer boundaries are the natural checkpoints: only
//     completed-layer outputs need to survive).
//
// Task bodies must be idempotent: a body can run more than once (retry,
// or re-execution of a partially completed layer after a replan) and must
// produce the same outputs given the same completed predecessor layers.
// A body communicates only through its group communicator, which is new
// for every retry, so retries are always safe.
//
// The returned Report is valid (and populated) even when the execution
// fails. The schedule may use at most w.P cores; replanned schedules use
// fewer as cores are lost.
func ExecuteCtx(ctx context.Context, w *World, sched *core.Schedule, body func(t *graph.Task) TaskFunc,
	opts ...ExecOption) (*Report, error) {

	cfg := newExecConfig(opts)
	resched := cfg.replan
	if resched == nil {
		resched = noReplan
	}
	return execute(ctx, w, sched, body, cfg, NewReport(), resched)
}

// ExecuteHierarchicalCtx runs a hierarchical schedule: basic tasks run as
// in ExecuteCtx, and a composed task (e.g. a while loop) runs its
// recursively scheduled body repeatedly on its group's cores, through the
// same dispatcher as the top level. Inner tasks therefore get the retries,
// panic isolation, fault injection, spans and trace events of top-level
// tasks, under the names "<composed>[<trip>]/<inner>" (nesting composes
// the names); a composed task's own span stays in the Report but its core
// time is counted through its inner spans, and Report.Layers counts
// top-level layers only. Inner bodies see the same TaskCtx as top-level
// ones, over their own group. An inner failure the policy cannot absorb
// fails the composed task's attempt, which the policy may retry as a
// whole.
//
// The iterations function returns whether a composed task runs another
// trip, given the number of trips done: it is called once per trip and
// once more to stop, by rank 0 of the composed task's group, before the
// trip's tasks start — so a callback that keeps state sees one call
// sequence per composed attempt, and a data-dependent while loop may
// inspect state the previous trip's bodies wrote. A nil iterations runs
// every composed body once. Degrade-and-replan of the top level uses the
// HierarchicalReplanner, which recomputes the sub-schedules for the new
// group sizes.
func ExecuteHierarchicalCtx(ctx context.Context, w *World, hs *core.HierarchicalSchedule,
	body func(t *graph.Task) TaskFunc, iterations func(t *graph.Task, done int) bool,
	opts ...ExecOption) (*Report, error) {

	cfg := newExecConfig(opts)
	rep := NewReport()
	// The composed bodies follow the hierarchy in force; replans happen
	// between dispatchers, when no leader is resolving a body.
	bodies := composedBodies(hs, body, iterations, w, cfg, rep)
	wrapped := func(t *graph.Task) TaskFunc { return bodies(t) }
	resched := func(rctx context.Context, survivors int) (*core.Schedule, error) {
		if cfg.hreplan == nil {
			return nil, nil
		}
		nhs, err := cfg.hreplan(rctx, survivors)
		if err != nil {
			return nil, err
		}
		bodies = composedBodies(nhs, body, iterations, w, cfg, rep)
		return nhs.Top, nil
	}
	return execute(ctx, w, hs.Top, wrapped, cfg, rep, resched)
}

// noReplan is the Replanner of an execution without one: escalations
// surface the failure.
func noReplan(context.Context, int) (*core.Schedule, error) { return nil, nil }

// execute runs sched under cfg into the fresh rep, timing the run.
func execute(ctx context.Context, w *World, sched *core.Schedule, body func(t *graph.Task) TaskFunc,
	cfg *execConfig, rep *Report, resched Replanner) (*Report, error) {

	rep.lean = cfg.noTimeline
	if sched != nil {
		rep.begin(sched.P)
	}
	err := runLayered(ctx, w, sched, body, cfg, rep, resched)
	rep.end()
	return rep, err
}

func newExecConfig(opts []ExecOption) *execConfig {
	cfg := &execConfig{grace: defaultAbandonGrace, spin: barrierSpin()}
	for _, opt := range opts {
		opt(cfg)
	}
	return cfg
}

// runLayered runs the schedule as one dispatcher pass, in either mode,
// and drives what happens between dispatchers: a resize applied at a
// layer boundary, and a degrade-and-replan after an exhausted failure.
// Both rebuild the dispatcher at the completed-layer prefix the pass
// returned — the checkpoint that survives them.
func runLayered(ctx context.Context, w *World, sched *core.Schedule, body func(t *graph.Task) TaskFunc,
	cfg *execConfig, rep *Report, resched Replanner) error {

	if sched == nil || body == nil {
		return fmt.Errorf("runtime: nil schedule or body")
	}
	if sched.P > w.P {
		return fmt.Errorf("runtime: schedule needs %d cores, world has %d", sched.P, w.P)
	}
	if cfg.wavefront && cfg.resize != nil {
		return ErrResizeInWavefront
	}
	cur := sched
	// Replanned and resized schedules run the same source tasks
	// (core.SameLayering), so they keep numbering their attempts here.
	attempts := rep.attemptCounters(cfg.prefix, sched.Source)
	base := sched.P // survivor accounting resets on voluntary resizes
	lost := 0
	li := 0
	for li < len(cur.Layers) {
		d, err := newDispatcher(w, cur, li, body, cfg, rep, attempts)
		if err != nil {
			return err
		}
		var layerErr error
		var failedCores int
		li, layerErr, failedCores = d.pass(ctx)
		if layerErr == nil {
			ns := d.resized
			if ns == nil {
				continue
			}
			if ns.P > w.P {
				return fmt.Errorf("runtime: resized schedule needs %d cores, world has %d", ns.P, w.P)
			}
			if serr := core.SameLayering(cur, ns); serr != nil {
				return fmt.Errorf("runtime: resize at layer barrier %d: %w", li, serr)
			}
			delta := ns.P - cur.P
			rep.resized(delta)
			cfg.rec.Instant(fmt.Sprintf("resize:%+d", delta), "exec", obs.ControlRank, cfg.rec.Now())
			cfg.rec.Counter("exec.resizes").Add(1)
			cur = ns // remaining layers run on the new core count
			base = ns.P
			lost = 0
			continue
		}
		if !cfg.policy.DegradeAndReplan || failedCores == 0 || ctx.Err() != nil {
			return layerErr
		}
		if cfg.policy.MaxReplans > 0 && rep.Replans >= cfg.policy.MaxReplans {
			return fmt.Errorf("runtime: replan budget (%d) exhausted: %w", cfg.policy.MaxReplans, layerErr)
		}
		lost += failedCores
		survivors := base - lost
		if survivors < 1 {
			return errors.Join(layerErr,
				fmt.Errorf("runtime: all %d cores lost: %w", base, core.ErrNoCores))
		}
		ns, rerr := resched(ctx, survivors)
		if rerr != nil {
			return errors.Join(layerErr, fmt.Errorf("runtime: replanning on %d cores: %w", survivors, rerr))
		}
		if ns == nil {
			return layerErr // no replanner configured
		}
		if serr := core.SameLayering(cur, ns); serr != nil {
			return errors.Join(layerErr, serr)
		}
		rep.replanned(lost, ns.P)
		cfg.rec.Instant("replan", "fault", obs.ControlRank, cfg.rec.Now())
		cfg.rec.Counter("fault.lost_cores").Add(int64(failedCores))
		cur = ns // resume from the last completed layer barrier
	}
	return nil
}

// runScheduledTask runs one scheduled task (expanding a contracted chain
// back to its source tasks) on its rank interval [td.Lo, td.Hi), with the
// policy's full retry loop around each source task; the task's leader
// worker calls it once the task's dependences are satisfied, and every
// attempt runs on the workers of the interval (coopAttempt). The second
// result reports whether a failure exhausted the retry budget — the
// degrade-and-replan trigger that costs the group its cores. The clock is
// read once per attempt boundary: an attempt starts where the chain's
// previous successful attempt ended, so a chain's spans are contiguous.
// A successful attempt takes no lock: the leader's worker sums its
// core-time and, unless the report is lean, logs its span (fold moves
// both into the Report when the pass joins).
func (wk *wfWorker) runScheduledTask(td *core.TaskDeps) (error, bool) {
	d := wk.d
	ctx, cfg, rep := d.ctx, d.cfg, d.rep

	// Inline SourceTasks: the single-task case must not allocate a slice
	// per dispatch (the cooperative hot path is allocation-free).
	var single [1]graph.TaskID
	srcs := d.sched.Graph.Task(td.ID).Members
	if len(srcs) == 0 {
		single[0] = td.ID
		srcs = single[:]
	}
	tstart := rep.since()
	for _, src := range srcs {
		t := d.sched.Source.Task(src)
		name := t.Name
		if cfg.prefix != "" { // a top-level name costs no concatenation call
			name = cfg.prefix + t.Name
		}
		fn := d.body(t)
		if fn == nil {
			return fmt.Errorf("runtime: no body for task %q", name), false
		}
		retries := 0
		for {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("runtime: task %q: %w", name, err), false
			}
			attempt := int(d.attempts[src].Add(1))
			aerr := wk.coopAttempt(t, name, fn, attempt, td)
			if aerr == nil {
				tend := rep.since()
				cores := td.Hi - td.Lo
				composed := t.Kind == graph.KindComposed
				if !composed {
					wk.busy += time.Duration(cores) * (tend - tstart)
				}
				if !rep.lean {
					wk.log = append(wk.log, TaskSpan{name, td.Layer, int(td.Group), cores, tstart, tend, composed})
				}
				tstart = tend
				break
			}
			retries++
			if err, exhausted := wk.failedAttempt(name, attempt, retries, aerr); err != nil {
				return err, exhausted
			}
			tstart = rep.since()
		}
	}
	return nil, false
}

// failedAttempt records a failed attempt of the named task and decides,
// per the policy, between giving up — returning the task's error and
// whether the retry budget was exhausted — and sleeping the backoff
// before retry number retry (nil). Kept out of runScheduledTask, it keeps
// the leader's stack frame on the success path small.
func (wk *wfWorker) failedAttempt(name string, attempt, retry int, aerr error) (error, bool) {
	ctx, cfg, rep := wk.d.ctx, wk.d.cfg, wk.d.rep
	rep.failed(name)
	cfg.rec.Instant("fail:"+name, "fault", obs.ControlRank, cfg.rec.Now())
	if ctx.Err() != nil {
		// Layer timeout or caller cancellation: not a core failure, do
		// not escalate to degrade-and-replan.
		return fmt.Errorf("runtime: task %q: %w", name, aerr), false
	}
	if !cfg.policy.Retryable(aerr) || retry > cfg.policy.MaxRetries {
		if cfg.policy.OnExhausted != nil {
			cfg.policy.OnExhausted(name, attempt, aerr)
		}
		return fmt.Errorf("runtime: task %q failed after %d attempt(s): %w", name, attempt, aerr), true
	}
	rep.retried(name)
	cfg.rec.Instant("retry:"+name, "fault", obs.ControlRank, cfg.rec.Now())
	cfg.rec.Counter("fault.retries").Add(1)
	if d := cfg.policy.Backoff(name, retry); d > 0 {
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
		}
	}
	return nil, false
}

// runRankAttempt executes one rank's share of one group attempt of the
// task named name: the injector consult, the body call, panic recovery
// (*PanicError) with *AbortError classification, the communicator abort on
// failure and the per-rank attempt span. runShare calls it in place on
// the worker's scratch, or on a goroutine over a heap share under a
// deadline. tc must be fully populated and its Group handle must resolve
// to gsh.
func runRankAttempt(tc *TaskCtx, name string, fn TaskFunc, attempt int, gsh *commShared, cfg *execConfig) (err error) {
	r := tc.Group.rank
	if cfg.rec != nil {
		tstart := cfg.rec.Now()
		// Record the attempt span in the defer so panicking and aborted
		// attempts leave their partial span too.
		defer func() {
			cfg.rec.Span(name, "task", gsh.ranks[r], tc.Layer, tc.GroupIndex, tstart, cfg.rec.Now())
		}()
	}
	defer func() {
		if p := recover(); p != nil {
			if ae, ok := p.(*AbortError); ok {
				err = ae
			} else {
				err = &PanicError{Value: p, Stack: debug.Stack()}
			}
		}
		if err != nil {
			gsh.abort(err) // release peers blocked in group collectives
		}
	}()
	if f := cfg.injector.Decide(name, attempt, r); f != nil {
		switch f.Kind {
		case fault.Delay:
			timer := time.NewTimer(f.Delay)
			select {
			case <-timer.C:
			case <-tc.Ctx.Done():
				timer.Stop()
				return fmt.Errorf("injected delay interrupted: %w", tc.Ctx.Err())
			}
		case fault.Error, fault.CoreLoss:
			return f.Err
		case fault.Panic:
			panic(fmt.Sprintf("fault: injected panic in task %q (attempt %d, rank %d)", name, attempt, r))
		}
	}
	return fn(tc)
}

// settleAttempt classifies the per-rank results of a finished attempt:
// recovered panics are counted, communicator aborts are secondary (they
// are the echo of the originating failure) and all real errors are joined
// in rank order.
func settleAttempt(name string, rep *Report, errs []error) error {
	var real, aborts []error
	panics := 0
	for r, err := range errs {
		if err == nil {
			continue
		}
		// An abort is the echo of the originating failure on another rank
		// (its cause may be that rank's panic) — classify it before the
		// panic check so echoes are not double-counted as panics.
		var ae *AbortError
		if errors.As(err, &ae) {
			aborts = append(aborts, fmt.Errorf("rank %d: %w", r, err))
			continue
		}
		var pe *PanicError
		if errors.As(err, &pe) {
			panics++
			real = append(real, fmt.Errorf("rank %d: %w", r, err))
			continue
		}
		real = append(real, fmt.Errorf("rank %d: %w", r, err))
	}
	rep.addPanics(name, panics)
	if len(real) > 0 {
		return errors.Join(real...)
	}
	if len(aborts) > 0 {
		// Aborted without a local originating error (e.g. the deadline
		// struck between two ranks' completions): surface the aborts.
		return errors.Join(aborts...)
	}
	return nil
}
