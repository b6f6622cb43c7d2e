package runtime

import (
	"context"
	"errors"
	"fmt"

	"mtask/internal/core"
	"mtask/internal/graph"
)

// ErrNoSubSchedule reports a composed task whose hierarchical schedule has
// no entry for it; test with errors.Is.
var ErrNoSubSchedule = errors.New("runtime: no sub-schedule for composed task")

// TaskCtx is the execution context handed to the SPMD body of an M-task:
// the group communicator of the cores executing the task, the global
// communicator (for orthogonal exchanges and data re-distribution between
// cooperating M-tasks), and the task being executed.
type TaskCtx struct {
	// Group is the communicator of the cores executing this task.
	Group *Comm
	// Global is the caller's handle of the world communicator.
	Global *Comm
	// Task is the original (uncontracted) M-task.
	Task *graph.Task
	// Layer and GroupIndex locate the task in the schedule.
	Layer      int
	GroupIndex int
	// Ctx is the attempt context of the fault-tolerant executor: it is
	// canceled when the attempt times out or the execution is canceled
	// (nil under the plain Execute/ExecuteHierarchical entry points).
	Ctx context.Context
}

// TaskFunc is the SPMD body of a basic M-task: it is invoked once per
// participating core, concurrently.
type TaskFunc func(ctx *TaskCtx) error

// Execute runs a layered schedule on the world: for every layer the world
// is split into the schedule's core groups, every group executes its
// assigned M-tasks one after another (contracted chains expand back to
// their original member tasks), and layers are separated by a global
// barrier (the group structure is reorganised between layers). The body
// function maps each original task to its SPMD implementation; tasks
// without a body are an error.
//
// Per-rank failures are aggregated with errors.Join in rank order: every
// rank that failed contributes its error to the result instead of all but
// one being dropped. For retries, timeouts and panic isolation use
// ExecuteCtx.
func Execute(w *World, sched *core.Schedule, body func(t *graph.Task) TaskFunc) error {
	if sched.P != w.P {
		return fmt.Errorf("runtime: schedule needs %d cores, world has %d", sched.P, w.P)
	}
	errs := make([]error, w.P)
	w.Run(func(global *Comm) {
		errs[global.Rank()] = executeOn(global, global, sched, body)
	})
	return joinRankErrors(errs)
}

// joinRankErrors aggregates per-rank errors with errors.Join, annotating
// each with its rank. Returns nil when every rank succeeded.
func joinRankErrors(errs []error) error {
	joined := make([]error, 0, len(errs))
	for rank, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("rank %d: %w", rank, err))
		}
	}
	return errors.Join(joined...)
}

// subScheduleIndex maps every composed source task of a hierarchical
// schedule to the schedule of its body, resolving the contraction
// indirection (a composed node may appear as the single member of a
// contracted node) once instead of scanning hs.Sub per execution.
func subScheduleIndex(hs *core.HierarchicalSchedule) map[*graph.Task]*core.HierarchicalSchedule {
	idx := make(map[*graph.Task]*core.HierarchicalSchedule, len(hs.Sub))
	for id, sub := range hs.Sub {
		node := hs.Top.Graph.Task(id)
		src := node
		if len(node.Members) == 1 {
			src = hs.Top.Source.Task(node.Members[0])
		}
		idx[src] = sub
	}
	return idx
}

// ExecuteHierarchical runs a hierarchical schedule: basic tasks execute
// their bodies as in Execute; a composed task (e.g. a while loop) executes
// its recursively scheduled body repeatedly on its group's cores. The
// iterations function returns the trip count of a composed task and is
// consulted before each repetition (return 0 to stop; it may inspect
// shared state updated by the body, which is how data-dependent while
// loops terminate).
func ExecuteHierarchical(w *World, hs *core.HierarchicalSchedule, body func(t *graph.Task) TaskFunc,
	iterations func(t *graph.Task, done int) bool) error {
	return Execute(w, hs.Top, composedBodies(hs, body, iterations))
}

// composedBodies extends body to the composed tasks of hs: a composed
// task's body runs its sub-schedule on the task's group.
func composedBodies(hs *core.HierarchicalSchedule, body func(t *graph.Task) TaskFunc,
	iterations func(t *graph.Task, done int) bool) func(t *graph.Task) TaskFunc {

	subOf := subScheduleIndex(hs)
	return func(t *graph.Task) TaskFunc {
		if t.Kind != graph.KindComposed {
			return body(t)
		}
		return func(ctx *TaskCtx) error {
			sub, ok := subOf[t]
			if !ok {
				return fmt.Errorf("%w: %q", ErrNoSubSchedule, t.Name)
			}
			return runComposed(ctx, t, sub, body, iterations)
		}
	}
}

// runComposed repeats a composed task's scheduled body on the group that
// executes it, consulting iterations before every trip.
func runComposed(ctx *TaskCtx, t *graph.Task, sub *core.HierarchicalSchedule,
	body func(t *graph.Task) TaskFunc, iterations func(t *graph.Task, done int) bool) error {
	if sub.Top.P != ctx.Group.Size() {
		return fmt.Errorf("runtime: sub-schedule needs %d cores, group has %d", sub.Top.P, ctx.Group.Size())
	}
	bodies := composedBodies(sub, body, iterations)
	for done := 0; iterations == nil && done < 1 || iterations != nil && iterations(t, done); done++ {
		if err := executeOn(ctx.Group, nil, sub.Top, bodies); err != nil {
			return err
		}
		if iterations == nil {
			break
		}
	}
	return nil
}

// executeOn is the communicator-split executor: this rank's share of
// running sched on comm, whose size must be sched.P. Every layer splits
// comm into the schedule's core groups, the rank runs its group's task
// list, and a barrier on comm separates the layers. A failed rank skips
// its remaining work but keeps the layer collectives, so its peers cannot
// deadlock. global is handed to the bodies as TaskCtx.Global.
func executeOn(comm, global *Comm, sched *core.Schedule, body func(t *graph.Task) TaskFunc) error {
	rank := comm.Rank()
	var firstErr error
	for li, ls := range sched.Layers {
		gi := int(ls.GroupOfRank(rank))
		groupComm := comm.Split(gi, rank, Group)
		for _, id := range ls.Groups[gi] {
			if firstErr != nil {
				break
			}
			for _, src := range sched.SourceTasks(id) {
				t := sched.Source.Task(src)
				fn := body(t)
				if fn == nil {
					firstErr = fmt.Errorf("runtime: no body for task %q", t.Name)
					break
				}
				ctx := &TaskCtx{Group: groupComm, Global: global, Task: t, Layer: li, GroupIndex: gi}
				if err := fn(ctx); err != nil {
					firstErr = fmt.Errorf("runtime: task %q: %w", t.Name, err)
					break
				}
			}
		}
		comm.Barrier()
	}
	return firstErr
}
