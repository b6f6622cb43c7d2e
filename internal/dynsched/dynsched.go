// Package dynsched provides dynamic scheduling of M-tasks, the runtime
// counterpart of the static layer-based algorithm: Section 2.2.2 of the
// paper notes that "for a dynamic scheduling, subsets of cores are
// assigned to M-tasks at runtime, depending on the availability of free
// cores. This approach can also handle the dynamic or recursive creation
// of M-tasks, which is suitable for adaptive computations or
// divide-and-conquer algorithms. The Tlib library supports such
// applications."
//
// Ctx.SplitRun mirrors Tlib: it recursively splits the current core group
// into weighted subgroups, each executing a child M-task concurrently
// (divide-and-conquer task creation). The Allocator (jobs.go) assigns
// cores to a stream of M-tasks at runtime as cores become free: it admits
// jobs onto whole-node partitions of a machine, FCFS with bounded
// backfill.
package dynsched

import (
	"context"
	"fmt"

	"mtask/internal/core"
	"mtask/internal/runtime"
)

// Task is a dynamically created M-task: an SPMD body executed by every
// core of its group.
type Task func(ctx *Ctx) error

// Ctx is the execution context of a dynamic M-task.
type Ctx struct {
	// Comm is the communicator of the cores executing this task.
	Comm *runtime.Comm
	// Depth is the recursive split depth (0 for the root task).
	Depth int
	// Context carries the cancellation of RunCtx (context.Background()
	// under Run).
	Context context.Context
}

// Run executes the root task on all cores of the world. It is equivalent
// to RunCtx with a background context.
func Run(w *runtime.World, root Task) error {
	return RunCtx(context.Background(), w, root)
}

// RunCtx executes the root task on all cores of the world with
// cancellation and panic isolation: canceling ctx aborts the world
// communicator (collectives unblock and fail), a panicking body becomes a
// *runtime.PanicError instead of crashing the process, and per-rank errors
// are aggregated with errors.Join.
func RunCtx(ctx context.Context, w *runtime.World, root Task) error {
	return w.RunCtx(ctx, func(c *runtime.Comm) error {
		return root(&Ctx{Comm: c, Context: ctx})
	})
}

// SplitSizes computes the subgroup sizes for q cores and the given
// weights: core.ProportionalGroupSizes, the static scheduler's group
// adjustment rule (proportional with a floor of one core each and
// largest-remainder rounding). It returns an error for no subgroups, more
// subgroups than cores, or a negative weight.
func SplitSizes(q int, weights []float64) ([]int, error) {
	g := len(weights)
	if g == 0 {
		return nil, fmt.Errorf("dynsched: empty split")
	}
	if g > q {
		return nil, fmt.Errorf("dynsched: cannot split %d cores into %d subgroups", q, g)
	}
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("dynsched: negative weight %g", w)
		}
	}
	return core.ProportionalGroupSizes(weights, q)
}

// SplitRun splits the current group into len(tasks) subgroups sized
// proportionally to weights and runs tasks[i] on subgroup i, concurrently.
// It is collective: every core of the group must call it with identical
// arguments. It returns after all subtasks completed, propagating the
// first error to every member.
func (c *Ctx) SplitRun(weights []float64, tasks []Task) error {
	if len(weights) != len(tasks) {
		return fmt.Errorf("dynsched: %d weights for %d tasks", len(weights), len(tasks))
	}
	sizes, err := SplitSizes(c.Comm.Size(), weights)
	if err != nil {
		return err
	}
	// Subgroup of this rank from the size prefix sums.
	rank := c.Comm.Rank()
	color, off := 0, 0
	for i, sz := range sizes {
		if rank < off+sz {
			color = i
			break
		}
		off += sz
	}
	sub := c.Comm.Split(color, rank, runtime.Group)
	taskErr := tasks[color](&Ctx{Comm: sub, Depth: c.Depth + 1, Context: c.Context})
	// Propagate errors: exchange error strings over the parent group.
	var mine any
	if taskErr != nil {
		mine = taskErr.Error()
	}
	for _, v := range c.Comm.ExchangeAny(mine) {
		if v != nil {
			return fmt.Errorf("dynsched: subtask failed: %s", v.(string))
		}
	}
	return nil
}
