// Package fault provides the failure model of the fault-tolerant M-task
// executor (runtime.ExecuteCtx): a deterministic, seedable failure
// Injector for tests and chaos benchmarks, and a retry Policy describing
// how the executor reacts to task failures.
//
// The injector is purely functional: every decision is a hash of
// (seed, task, attempt, rank), so a given seed reproduces exactly the same
// fault pattern regardless of goroutine scheduling, worker count, or the
// order in which tasks happen to run. Besides the probabilistic mode it
// supports a script mode ("fail task X on attempt N") used by the
// degrade-and-replan acceptance tests, which must kill one specific core
// group mid-run and nothing else.
//
// The policy implements per-task retry budgets with exponential backoff
// and deterministic jitter, per-attempt and per-layer timeouts, and the
// degrade-and-replan escalation switch: when a task exhausts its retries
// the executor can shrink the machine by the failed group's cores and
// reschedule the remaining layers on the survivors (see
// runtime.ExecuteCtx and plan.Planner.Replan).
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"
)

// Sentinel errors of the failure model; test with errors.Is.
var (
	// ErrInjected is wrapped by every fault the Injector produces.
	ErrInjected = errors.New("fault: injected failure")

	// ErrCoreLost marks the permanent loss of a task's core group.
	// Core-loss failures are not retryable (the cores are gone); the
	// executor escalates them to degrade-and-replan when enabled.
	ErrCoreLost = errors.New("fault: core group lost")
)

// Kind enumerates the failure modes the injector can produce.
type Kind int

const (
	// None produces no fault.
	None Kind = iota
	// Error makes the task body return an error on the chosen rank.
	Error
	// Panic makes the task body panic on the chosen rank.
	Panic
	// Delay stalls the task body on the chosen rank (exercises
	// timeouts; the stall is cancelable by the attempt context).
	Delay
	// CoreLoss simulates losing the task's core group permanently:
	// the attempt fails with ErrCoreLost, which the policy treats as
	// non-retryable and the executor escalates to degrade-and-replan.
	CoreLoss
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case CoreLoss:
		return "core-loss"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault is one injection decision for a (task, attempt, rank) triple.
type Fault struct {
	Kind  Kind
	Delay time.Duration // stall duration for Delay faults
	Err   error         // error to return for Error/CoreLoss faults
}

// Script is one scripted fault: kind strikes the named task on the given
// attempt (1-based, counted per task across retries and replans). Tasks
// that share a name number their attempts apart, so a script on a shared
// name strikes each of them on that attempt. Rank selects one SPMD rank of
// the task's group, or every rank when negative.
type Script struct {
	Task    string
	Attempt int
	Rank    int
	Kind    Kind
	Delay   time.Duration // for Kind == Delay (0 = Injector.Delay)
}

// Injector decides, deterministically, which task attempts fail and how.
// A nil *Injector injects nothing. The zero value injects nothing until
// probabilities or script entries are set.
//
// Probabilities are evaluated per (task, attempt, rank) by hashing the
// triple with the seed, so decisions are reproducible and independent of
// execution order. Kinds are checked in severity order: core loss, panic,
// error, delay.
type Injector struct {
	// Seed selects the reproducible fault pattern.
	Seed int64

	// PError, PPanic, PDelay, PCoreLoss are per-rank fault
	// probabilities in [0, 1].
	PError, PPanic, PDelay, PCoreLoss float64

	// Delay is the stall duration of Delay faults (default 10ms).
	Delay time.Duration

	// Script lists scripted faults checked before the probabilistic
	// model; the first match wins.
	Script []Script
}

// DefaultDelay is the stall duration of Delay faults when unset.
const DefaultDelay = 10 * time.Millisecond

// Decide returns the fault to inject into the given rank of the task's
// attempt (attempts are 1-based), or nil for a clean execution.
func (in *Injector) Decide(task string, attempt, rank int) *Fault {
	if in == nil {
		return nil
	}
	for i := range in.Script {
		s := &in.Script[i]
		if s.Task != task || s.Attempt != attempt || (s.Rank >= 0 && s.Rank != rank) {
			continue
		}
		return in.fault(s.Kind, s.Delay, task, attempt, rank)
	}
	type probe struct {
		kind Kind
		p    float64
		salt string
	}
	for _, pr := range []probe{
		{CoreLoss, in.PCoreLoss, "coreloss"},
		{Panic, in.PPanic, "panic"},
		{Error, in.PError, "error"},
		{Delay, in.PDelay, "delay"},
	} {
		if pr.p > 0 && unit(in.Seed, pr.salt, task, attempt, rank) < pr.p {
			return in.fault(pr.kind, 0, task, attempt, rank)
		}
	}
	return nil
}

// fault materialises a decision into a Fault value.
func (in *Injector) fault(kind Kind, delay time.Duration, task string, attempt, rank int) *Fault {
	f := &Fault{Kind: kind}
	switch kind {
	case None:
		return nil
	case Delay:
		f.Delay = delay
		if f.Delay <= 0 {
			f.Delay = in.Delay
		}
		if f.Delay <= 0 {
			f.Delay = DefaultDelay
		}
	case Error:
		f.Err = fmt.Errorf("%w: task %q attempt %d rank %d", ErrInjected, task, attempt, rank)
	case CoreLoss:
		f.Err = fmt.Errorf("%w: task %q attempt %d rank %d: %w", ErrInjected, task, attempt, rank, ErrCoreLost)
	}
	return f
}

// unit hashes (seed, salt, task, attempt, rank) to a uniform float64 in
// [0, 1). FNV-1a is ample for fault injection and keeps the package
// dependency-free.
func unit(seed int64, salt, task string, attempt, rank int) float64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(seed))
	h.Write([]byte(salt))
	h.Write([]byte{0})
	h.Write([]byte(task))
	h.Write([]byte{0})
	put(uint64(attempt))
	put(uint64(rank))
	const mantissa = 1 << 53
	return float64(h.Sum64()>>11) / mantissa
}
