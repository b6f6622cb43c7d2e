package runtime

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"mtask/internal/core"
	"mtask/internal/graph"
)

// ErrNoSubSchedule reports a composed task whose hierarchical schedule has
// no entry for it; test with errors.Is.
var ErrNoSubSchedule = errors.New("runtime: no sub-schedule for composed task")

// TaskCtx is the execution context handed to the SPMD body of an M-task:
// the group communicator of the cores executing the task and the task
// being executed. M-tasks cooperate only through their input-output
// relations, so a body talks to its own group and to nobody else; both
// modes, at the top level and inside a composed task, hand bodies the
// same context.
type TaskCtx struct {
	// Group is the communicator of the cores executing this task.
	Group *Comm
	// Task is the original (uncontracted) M-task.
	Task *graph.Task
	// Layer and GroupIndex locate the task in the schedule of its level
	// (an inner task's in the sub-schedule of its composed task).
	Layer      int
	GroupIndex int
	// Ctx is the attempt context: it is canceled when the attempt times
	// out (TaskTimeout, or its layer's LayerTimeout) or the execution is
	// canceled.
	Ctx context.Context
}

// TaskFunc is the SPMD body of a basic M-task: it is invoked once per
// participating core, concurrently.
type TaskFunc func(ctx *TaskCtx) error

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

// composedBodies extends body to the composed tasks of hs, which the
// dispatcher running under cfg executes: rank 0 of a composed task's group
// runs the task's trips (runComposed), the other ranks return at once —
// their next chain entries wait on the composed task anyway.
func composedBodies(hs *core.HierarchicalSchedule, body func(t *graph.Task) TaskFunc,
	iterations func(t *graph.Task, done int) bool, w *World, cfg *execConfig, rep *Report) func(t *graph.Task) TaskFunc {

	subOf := subScheduleIndex(hs)
	return func(t *graph.Task) TaskFunc {
		if t.Kind != graph.KindComposed {
			return body(t)
		}
		return func(tc *TaskCtx) error {
			if tc.Group.Rank() != 0 {
				return nil
			}
			sub, ok := subOf[t]
			if !ok {
				return fmt.Errorf("%w: %q", ErrNoSubSchedule, t.Name)
			}
			return runComposed(tc, t, sub, body, iterations, w, cfg, rep)
		}
	}
}

// runComposed runs the trips of a composed task on the group of tc. Every
// trip is one run of the sub-schedule through the dispatcher the parent
// level uses, with the parent's World, policy, injector, recorder and pass
// width, and no resizer or replanner; the group's world ranks label the
// child's ranks. Inner tasks are named <composed>[<trip>]/<inner> in the
// report, the recorder and the injector's keys. A failure the inner
// policy could not absorb fails this attempt of the composed task, and
// the parent's policy decides what happens next. iterations is consulted
// once per trip, here on the group's rank 0 (nil runs a single trip).
func runComposed(tc *TaskCtx, t *graph.Task, sub *core.HierarchicalSchedule, body func(t *graph.Task) TaskFunc,
	iterations func(t *graph.Task, done int) bool, w *World, cfg *execConfig, rep *Report) error {

	if sub.Top.P != tc.Group.Size() {
		return fmt.Errorf("runtime: sub-schedule needs %d cores, group has %d", sub.Top.P, tc.Group.Size())
	}
	for done := 0; iterations == nil && done == 0 || iterations != nil && iterations(t, done); done++ {
		child := *cfg
		child.resize = nil
		child.ranks = tc.Group.shared.ranks
		child.prefix = cfg.prefix + t.Name + "[" + strconv.Itoa(done) + "]/"
		bodies := composedBodies(sub, body, iterations, w, &child, rep)
		if err := runLayered(tc.Ctx, w, sub.Top, bodies, &child, rep, noReplan); err != nil {
			return err
		}
	}
	return nil
}
