// Package dynsched provides dynamic scheduling of M-tasks, the runtime
// counterpart of the static layer-based algorithm: Section 2.2.2 of the
// paper notes that "for a dynamic scheduling, subsets of cores are
// assigned to M-tasks at runtime, depending on the availability of free
// cores. This approach can also handle the dynamic or recursive creation
// of M-tasks, which is suitable for adaptive computations or
// divide-and-conquer algorithms. The Tlib library supports such
// applications."
//
// Two facilities mirror Tlib:
//
//   - Ctx.SplitRun recursively splits the current core group into weighted
//     subgroups, each executing a child M-task concurrently
//     (divide-and-conquer task creation);
//   - Pool schedules a dynamic stream of M-tasks with given core
//     requirements onto free cores greedily.
package dynsched

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"mtask/internal/core"
	"mtask/internal/obs"
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
	// Context carries the cancellation of RunCtx / RunAllCtx
	// (context.Background() under the plain entry points).
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

// --- dynamic pool scheduling ---

// PoolTask is an M-task submitted to a dynamic pool: it requires Cores
// cores and runs Body on a fresh group of that size.
type PoolTask struct {
	Name  string
	Cores int
	Body  func(c *runtime.Comm) error
}

// Pool schedules a set of M-tasks onto P cores dynamically: whenever
// enough cores are idle, the next task (largest requirement first, the
// greedy rule of the static scheduler) grabs them. It returns the first
// task error, if any.
type Pool struct {
	P int

	// Backfill opts into out-of-order admission: when the largest pending
	// task does not fit the free cores, the largest pending task that does
	// fit is admitted instead of blocking the queue head-of-line. The
	// default (false) keeps strict largest-first admission order, which
	// never starves a wide task but can idle cores behind it. Set before
	// the first RunAll / RunAllCtx call; the field is not synchronised.
	Backfill bool

	// Trace, when non-nil, records pool activity on the recorder's
	// control track: an admission instant per task ("admit:<name>", or
	// "backfill:<name>" for out-of-order picks), per-task execution
	// spans, and counter samples of the pending-queue depth and free
	// cores at every admission. Set before the first RunAll / RunAllCtx
	// call; the field is not synchronised.
	Trace *obs.Recorder

	mu    sync.Mutex
	cond  *sync.Cond
	free  int
	first error
}

// NewPool returns a dynamic pool over P cores.
func NewPool(p int) (*Pool, error) {
	if p < 1 {
		return nil, fmt.Errorf("dynsched: pool needs at least one core")
	}
	pool := &Pool{P: p, free: p}
	pool.cond = sync.NewCond(&pool.mu)
	return pool, nil
}

// clamp bounds a task's core requirement to [1, P], like the paper's
// schedulers do via MaxWidth.
func (p *Pool) clamp(cores int) int {
	if cores < 1 {
		return 1
	}
	if cores > p.P {
		return p.P
	}
	return cores
}

// RunAll executes the tasks, each on its own goroutine group, never using
// more than P cores at once. Tasks requiring more than P cores are
// clamped to P (the paper's schedulers do the same via MaxWidth). It is
// equivalent to RunAllCtx with a background context.
func (p *Pool) RunAll(tasks []PoolTask) error {
	return p.RunAllCtx(context.Background(), tasks)
}

// RunAllCtx executes the tasks like RunAll with cancellation and panic
// isolation: canceling ctx stops launching queued tasks (the cancellation
// is also delivered to running task worlds, unblocking their collectives)
// and RunAllCtx returns ctx's error after the already-running tasks
// settle. A panicking task body is recovered into a *runtime.PanicError
// and reported as that task's failure instead of crashing the process.
func (p *Pool) RunAllCtx(ctx context.Context, tasks []PoolTask) error {
	ordered := append([]PoolTask(nil), tasks...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Cores > ordered[j].Cores })

	// Wake the admission loop when ctx is canceled.
	stop := make(chan struct{})
	defer close(stop)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				p.mu.Lock()
				p.cond.Broadcast()
				p.mu.Unlock()
			case <-stop:
			}
		}()
	}

	var wg sync.WaitGroup
	canceled := false
	for len(ordered) > 0 {
		// Pick the next admissible task: the queue head (largest pending
		// requirement), or — in backfill mode — the largest pending task
		// that fits the free cores when the head does not.
		p.mu.Lock()
		pick := -1
		for pick < 0 && ctx.Err() == nil {
			if p.clamp(ordered[0].Cores) <= p.free {
				pick = 0
			} else if p.Backfill {
				for i := 1; i < len(ordered); i++ {
					if p.clamp(ordered[i].Cores) <= p.free {
						pick = i
						break
					}
				}
			}
			if pick < 0 {
				p.cond.Wait()
			}
		}
		if ctx.Err() != nil {
			p.mu.Unlock()
			canceled = true
			break
		}
		t := ordered[pick]
		need := p.clamp(t.Cores)
		p.free -= need
		freeNow := p.free
		p.mu.Unlock()
		ordered = append(ordered[:pick], ordered[pick+1:]...)
		if p.Trace != nil {
			now := p.Trace.Now()
			kind := "admit:"
			if pick > 0 {
				kind = "backfill:"
				p.Trace.Counter("dynsched.backfills").Add(1)
			}
			p.Trace.Instant(kind+t.Name, "dynsched", obs.ControlRank, now)
			p.Trace.Counter("dynsched.admitted").Add(1)
			p.Trace.CounterSample("dynsched.queue_depth", "dynsched", obs.ControlRank, now, float64(len(ordered)))
			p.Trace.CounterSample("dynsched.free_cores", "dynsched", obs.ControlRank, now, float64(freeNow))
		}

		wg.Add(1)
		go func(t PoolTask, need int) {
			defer wg.Done()
			tstart := p.Trace.Now()
			w, err := runtime.NewWorld(need)
			if err == nil {
				err = w.RunCtx(ctx, t.Body)
			}
			p.Trace.Span(t.Name, "dynsched", obs.ControlRank, -1, -1, tstart, p.Trace.Now())
			p.mu.Lock()
			if err != nil && p.first == nil {
				p.first = fmt.Errorf("dynsched: task %q: %w", t.Name, err)
			}
			p.free += need
			p.cond.Broadcast()
			p.mu.Unlock()
		}(t, need)
	}
	wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	if canceled && p.first == nil {
		return fmt.Errorf("dynsched: pool canceled: %w", ctx.Err())
	}
	return p.first
}
