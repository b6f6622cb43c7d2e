package runtime

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mtask/internal/core"
	"mtask/internal/fault"
	"mtask/internal/graph"
)

// TestAbandonGraceAbandonsHungBody covers the abandon path end to end: a
// body hanging in pure computation (ignoring its context and immune to the
// communicator abort) past the grace is abandoned, its peer blocked in a
// group collective is released by the attempt abort before ExecuteCtx
// returns, and the surfaced error names the timeout cause.
func TestAbandonGraceAbandonsHungBody(t *testing.T) {
	g := graph.New("hang")
	a := g.AddBasic("a", 1)
	sched := &core.Schedule{
		Source: g,
		Graph:  g,
		P:      2,
		Layers: []*core.LayerSchedule{{
			Layer:  graph.Layer{a},
			Groups: [][]graph.TaskID{{a}},
			Sizes:  []int{2},
		}},
	}
	w, _ := NewWorld(2)

	hang := make(chan struct{})
	t.Cleanup(func() { close(hang) }) // release the leaked goroutine
	var entered, released atomic.Int32
	body := func(task *graph.Task) TaskFunc {
		return func(tc *TaskCtx) error {
			if tc.Group.Rank() == 0 {
				<-hang // pure computation: no ctx check, no collective
				return nil
			}
			// Rank 1 blocks in a group barrier rank 0 never joins; only the
			// attempt abort releases it. Every attempt has a fresh group
			// communicator, so a retry may enter the barrier again.
			entered.Add(1)
			defer released.Add(1)
			tc.Group.Barrier()
			return nil
		}
	}

	pol := fault.DefaultPolicy()
	pol.TaskTimeout = 20 * time.Millisecond
	start := time.Now()
	rep, err := ExecuteCtx(context.Background(), w, sched, body,
		WithPolicy(pol), WithAbandonGrace(30*time.Millisecond))
	// The attempt abort released rank 1 from every barrier it entered
	// (its AbortError panic runs the body's defer) before the attempt
	// settled, so before ExecuteCtx returned.
	if n, m := entered.Load(), released.Load(); n == 0 || m != n {
		t.Fatalf("rank 1 entered the barrier %d times and left it %d times before ExecuteCtx returned", n, m)
	}
	if err == nil {
		t.Fatalf("hung body reported success: %s", rep)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("returned after %v, before timeout+grace", elapsed)
	}
	if !strings.Contains(err.Error(), "abandoned after") {
		t.Fatalf("error does not mark the attempt abandoned: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not name the timeout cause: %v", err)
	}
	if got := rep.Task("a").Failures; got == 0 {
		t.Fatalf("abandoned attempt not counted as failure: %s", rep)
	}
}

func TestDeadlineAbortsAttemptAtOnce(t *testing.T) {
	// Under a deadline policy the end of the attempt context — a
	// TaskTimeout, a LayerTimeout or caller cancellation — aborts the
	// group communicator at once, not after the abandon grace. Rank 1
	// blocks in a group barrier that rank 0 never joins; rank 0 ignores
	// its context and waits until rank 1 left the barrier. Only the abort
	// releases rank 1, so the attempt settles long before the 10 s grace,
	// and nothing is abandoned.
	const grace = 10 * time.Second
	sched := gridSchedule(2, 1, 2)
	cases := []struct {
		name   string
		pol    fault.Policy
		cancel bool // cancel the caller's context instead of timing out
		opts   []ExecOption
		cause  error
	}{
		{"task timeout, layered", fault.Policy{TaskTimeout: 20 * time.Millisecond}, false, nil, context.DeadlineExceeded},
		{"task timeout, wavefront", fault.Policy{TaskTimeout: 20 * time.Millisecond}, false, []ExecOption{WithWavefront()}, context.DeadlineExceeded},
		{"layer timeout", fault.Policy{LayerTimeout: 20 * time.Millisecond}, false, nil, context.DeadlineExceeded},
		{"cancellation", fault.DefaultPolicy(), true, []ExecOption{WithWavefront()}, context.Canceled},
	}
	for _, tc := range cases {
		ctx, cancel := context.WithCancel(context.Background())
		if tc.cancel {
			time.AfterFunc(20*time.Millisecond, cancel)
		}
		left := make(chan struct{})
		body := func(*graph.Task) TaskFunc {
			return func(c *TaskCtx) error {
				if c.Group.Rank() == 0 {
					<-left // ignores c.Ctx
					return nil
				}
				defer close(left)
				c.Group.Barrier()
				return nil
			}
		}
		w, _ := NewWorld(2)
		start := time.Now()
		rep, err := ExecuteCtx(ctx, w, sched, body, append([]ExecOption{WithPolicy(tc.pol), WithAbandonGrace(grace)}, tc.opts...)...)
		cancel()
		if elapsed := time.Since(start); elapsed > grace/2 {
			t.Fatalf("%s: returned after %v: the attempt was not aborted at once", tc.name, elapsed)
		}
		if !errors.Is(err, tc.cause) || strings.Contains(err.Error(), "abandoned after") {
			t.Fatalf("%s: error %v, want %v without an abandoned share\n%s", tc.name, err, tc.cause, rep)
		}
	}
}
