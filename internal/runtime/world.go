package runtime

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"mtask/internal/obs"
)

// World is a set of P symbolic cores realised as goroutines, with a global
// communicator and shared operation statistics.
type World struct {
	P     int
	Stats Stats
	// Trace, when non-nil, records per-rank collective counters and
	// barrier-wait spans for runs driven through Run/RunCtx (the ODE
	// solver path). The executor path (ExecuteCtx) attaches a recorder
	// through the WithRecorder option instead.
	Trace *obs.Recorder
}

// NewWorld returns a world of p cores.
func NewWorld(p int) (*World, error) {
	if p < 1 {
		return nil, fmt.Errorf("runtime: world needs at least one core, got %d", p)
	}
	return &World{P: p}, nil
}

// PanicError is a panic recovered from a task body or core goroutine,
// converted to an error with the panicking goroutine's stack captured at
// recovery time.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking goroutine
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runtime: recovered panic: %v\n%s", e.Value, e.Stack)
}

// identityRanks returns [0, 1, ..., n).
func identityRanks(n int) []int {
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	return ranks
}

// Run executes fn on every core concurrently, passing each goroutine its
// own handle of the global communicator, and waits for all cores to
// finish. Run may be called repeatedly; statistics accumulate until Reset.
//
// A panic in a core goroutine no longer crashes the process: the world
// communicator is aborted (releasing peers blocked in collectives) and the
// first recovered panic is re-raised on the calling goroutine as a
// *PanicError carrying the original stack, where the caller can recover
// it. Use RunCtx to receive panics as errors instead.
func (w *World) Run(fn func(c *Comm)) {
	err := w.RunCtx(context.Background(), func(c *Comm) error {
		fn(c)
		return nil
	})
	var pe *PanicError
	if errors.As(err, &pe) {
		panic(pe)
	}
}

// RunCtx executes fn on every core concurrently like Run, with
// cancellation and panic isolation: canceling ctx aborts the world
// communicator (collectives unblock and fail), a goroutine that panics has
// the panic recovered into a *PanicError with stack capture, and a
// goroutine that fails — by returning a non-nil error or panicking —
// aborts the communicator so its peers cannot deadlock at a collective.
// The per-rank errors are aggregated with errors.Join in rank order.
func (w *World) RunCtx(ctx context.Context, fn func(c *Comm) error) error {
	shared := newCommShared(Global, identityRanks(w.P), &w.Stats, w.Trace, barrierSpin())
	stop := make(chan struct{})
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				shared.abort(ctx.Err())
			case <-stop:
			}
		}()
	}
	errs := make([]error, w.P)
	var wg sync.WaitGroup
	wg.Add(w.P)
	for r := 0; r < w.P; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if ae, ok := p.(*AbortError); ok {
						errs[rank] = ae
					} else {
						errs[rank] = &PanicError{Value: p, Stack: debug.Stack()}
					}
				}
				if errs[rank] != nil {
					shared.abort(errs[rank])
				}
			}()
			errs[rank] = fn(&Comm{shared: shared, rank: rank})
		}(r)
	}
	wg.Wait()
	close(stop)
	joined := make([]error, 0, w.P)
	for rank, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("rank %d: %w", rank, err))
		}
	}
	return errors.Join(joined...)
}

// BlockRange splits n items over size ranks in contiguous blocks and
// returns the half-open range of the given rank. The first n%size ranks
// receive one extra item.
func BlockRange(n, size, rank int) (lo, hi int) {
	base, rem := n/size, n%size
	lo = rank*base + min(rank, rem)
	cnt := base
	if rank < rem {
		cnt++
	}
	return lo, lo + cnt
}
