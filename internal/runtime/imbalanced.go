package runtime

import (
	"strconv"
	"strings"
	"time"

	"mtask/internal/core"
	"mtask/internal/graph"
)

// ImbalancedWorkload builds the canonical workload where wavefront
// execution beats layer-synchronous execution: two core groups of P/2
// ranks, `layers` layers of two independent per-group chains, and per
// layer one slow and one fast task with the slow side alternating between
// the groups. Task names are "slow[i]" / "fast[i]"; ImbalancedBody turns
// them into sleeps.
//
// In layered mode every layer costs max(slow, fast) = slow (the fast
// group idles at the join), so the wall time is layers×slow. In
// wavefront mode the two chains run independently; each chain
// alternates slow and fast tasks, so both finish in about
// layers×(slow+fast)/2 — the idle time at the barrier is recovered. The
// win is pure waiting time, so it holds even on a single-CPU host.
//
// P must be even and layers ≥ 1. The schedule is hand-built (no scheduler
// pass) but satisfies every invariant of core.Schedule.Validate and
// core.PrecedenceOf.
func ImbalancedWorkload(p, layers int) *core.Schedule {
	if p < 2 || p%2 != 0 {
		panic("runtime: ImbalancedWorkload needs an even P >= 2")
	}
	if layers < 1 {
		panic("runtime: ImbalancedWorkload needs at least one layer")
	}
	g := graph.New("imbalanced")
	sched := &core.Schedule{P: p}
	var prevA, prevB graph.TaskID
	for li := 0; li < layers; li++ {
		// Group 0 gets the slow task on even layers, group 1 on odd ones.
		nameA, nameB := "slow", "fast"
		if li%2 == 1 {
			nameA, nameB = "fast", "slow"
		}
		a := g.AddBasic(nameA+"["+strconv.Itoa(li)+"]", 1)
		b := g.AddBasic(nameB+"["+strconv.Itoa(li)+"]", 1)
		if li > 0 {
			g.MustEdge(prevA, a, 8)
			g.MustEdge(prevB, b, 8)
		}
		prevA, prevB = a, b
		sched.Layers = append(sched.Layers, &core.LayerSchedule{
			Layer:  graph.Layer{a, b},
			Groups: [][]graph.TaskID{{a}, {b}},
			Sizes:  []int{p / 2, p / 2},
		})
	}
	sched.Source = g
	sched.Graph = g
	return sched
}

// ImbalancedBody returns the body function of ImbalancedWorkload: every
// rank of a "slow[...]" task sleeps slow, every rank of a "fast[...]" task
// sleeps fast, and the group synchronises with one barrier so the sleep is
// a real SPMD task, not P independent naps.
func ImbalancedBody(slow, fast time.Duration) func(t *graph.Task) TaskFunc {
	return func(t *graph.Task) TaskFunc {
		d := fast
		if strings.HasPrefix(t.Name, "slow") {
			d = slow
		}
		return func(tc *TaskCtx) error {
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-tc.Ctx.Done():
				timer.Stop()
				return tc.Ctx.Err()
			}
			tc.Group.Barrier()
			return nil
		}
	}
}
