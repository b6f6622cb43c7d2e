package runtime

import (
	"context"
	"errors"
	"sync"
	"testing"

	"mtask/internal/graph"
)

// TestLazyGlobalCreateThenAbort: a communicator in use when the abort
// arrives is poisoned like an eager one.
func TestLazyGlobalCreateThenAbort(t *testing.T) {
	lg := newLazyGlobal(Global, identityRanks(2), nil, nil, barrierSpin())
	c := &Comm{lazy: lg, rank: 0}
	if got := c.Size(); got != 2 { // first touch creates the shared state
		t.Fatalf("size = %d, want 2", got)
	}
	cause := errors.New("boom")
	lg.abort(cause)
	defer func() {
		p := recover()
		ae, ok := p.(*AbortError)
		if !ok {
			t.Fatalf("collective on aborted lazy comm panicked with %v, want *AbortError", p)
		}
		if !errors.Is(ae, cause) {
			t.Fatalf("abort cause lost: %v", ae)
		}
	}()
	c.Barrier()
	t.Fatal("barrier on aborted communicator returned")
}

// TestLazyGlobalAbortThenCreate: a member touching the communicator for
// the first time after the abort (the abandoned-straggler race) gets it
// pre-poisoned instead of creating a live communicator no peer will join.
func TestLazyGlobalAbortThenCreate(t *testing.T) {
	lg := newLazyGlobal(Global, identityRanks(2), nil, nil, barrierSpin())
	cause := errors.New("layer done")
	lg.abort(cause)
	c := &Comm{lazy: lg, rank: 1}
	defer func() {
		p := recover()
		ae, ok := p.(*AbortError)
		if !ok {
			t.Fatalf("collective panicked with %v, want *AbortError", p)
		}
		if !errors.Is(ae, cause) {
			t.Fatalf("abort cause lost: %v", ae)
		}
	}()
	c.Barrier()
	t.Fatal("barrier on pre-aborted communicator returned")
}

// TestLazyGlobalNeverTouchedAllocatesNothing: the point of the laziness —
// a layer whose bodies never use TaskCtx.Global must not build the global
// communicator at all, and the layer-end abort must stay allocation-free.
func TestLazyGlobalNeverTouchedAllocatesNothing(t *testing.T) {
	lg := newLazyGlobal(Global, identityRanks(8), nil, nil, barrierSpin())
	lg.abort(errLayerDone)
	if lg.sh != nil {
		t.Fatal("untouched lazy global allocated shared state")
	}
}

// TestExecuteCtxGlobalCollective: bodies of layer-concurrent groups using
// the (now lazily created) per-layer global communicator still synchronise
// across groups in layered mode.
func TestExecuteCtxGlobalCollective(t *testing.T) {
	_, sched := diamondSchedule(t, 8)
	w, _ := NewWorld(8)
	var mu sync.Mutex
	sums := make(map[string]float64)
	rep, err := ExecuteCtx(context.Background(), w, sched, func(task *graph.Task) TaskFunc {
		return func(tc *TaskCtx) error {
			// Every rank of every group in the layer joins the global
			// all-reduce; with the diamond's middle layer (b and c in
			// separate groups) this spans both groups, so each records the
			// contribution of all P cores.
			sum := tc.Global.AllreduceSum(1)
			if tc.Group.Rank() == 0 {
				mu.Lock()
				sums[task.Name] = sum
				mu.Unlock()
			}
			return nil
		}
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, rep)
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		if got := sums[name]; got != 8 {
			t.Fatalf("task %q saw global sum %v, want 8", name, got)
		}
	}
}
