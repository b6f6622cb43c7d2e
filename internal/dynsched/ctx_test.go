package dynsched

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mtask/internal/runtime"
)

func TestRunCtxCancellationUnblocksCollectives(t *testing.T) {
	// Canceling the context must release ranks blocked in a barrier and
	// surface context.Canceled.
	w, _ := runtime.NewWorld(4)
	ctx, cancel := context.WithCancel(context.Background())
	var entered atomic.Int64
	go func() {
		for entered.Load() < 4 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		done <- RunCtx(ctx, w, func(c *Ctx) error {
			entered.Add(1)
			for i := 0; i < 1_000_000; i++ {
				c.Comm.Barrier()
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not unblock the barrier")
	}
}

func TestRunCtxPropagatesContext(t *testing.T) {
	// The context handed to RunCtx must reach the task (and recursive
	// SplitRun children) via Ctx.Context.
	w, _ := runtime.NewWorld(4)
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "payload")
	err := RunCtx(ctx, w, func(c *Ctx) error {
		if c.Context.Value(key{}) != "payload" {
			t.Error("root context lost")
		}
		return c.SplitRun([]float64{1, 1}, []Task{
			func(c *Ctx) error {
				if c.Context.Value(key{}) != "payload" {
					t.Error("child context lost")
				}
				return nil
			},
			func(c *Ctx) error { return nil },
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunCtxRecoversPanic(t *testing.T) {
	// A panicking dynamic task becomes a *runtime.PanicError instead of
	// crashing the process; peers blocked in a barrier are released.
	w, _ := runtime.NewWorld(4)
	done := make(chan error, 1)
	go func() {
		done <- RunCtx(context.Background(), w, func(c *Ctx) error {
			if c.Comm.Rank() == 1 {
				panic("dynamic boom")
			}
			c.Comm.Barrier()
			return nil
		})
	}()
	select {
	case err := <-done:
		var pe *runtime.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("got %v, want *runtime.PanicError", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("panic deadlocked the world")
	}
}
