package runtime

import (
	"context"
	"testing"
	"time"

	"mtask/internal/fault"
	"mtask/internal/graph"
	"mtask/internal/obs"
)

// The imbalanced-schedule pair measures what the wavefront dispatcher
// recovers from layer barriers: per layer one group sleeps `slow`, the
// other `fast`, with the slow side alternating. Layered execution pays
// layers×slow; wavefront execution overlaps the chains and pays about
// layers×(slow+fast)/2. The sleep-based bodies make the comparison valid
// on any core count (including the single-CPU CI runner): the win is
// waiting time, not compute parallelism.
func benchImbalanced(b *testing.B, opts ...ExecOption) {
	const layers = 8
	sched := ImbalancedWorkload(2, layers)
	body := ImbalancedBody(4*time.Millisecond, 500*time.Microsecond)
	w, _ := NewWorld(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := ExecuteCtx(context.Background(), w, sched, body, opts...)
		if err != nil {
			b.Fatalf("%v\n%s", err, rep)
		}
	}
}

func BenchmarkExecLayeredImbalanced(b *testing.B)   { benchImbalanced(b) }
func BenchmarkExecWavefrontImbalanced(b *testing.B) { benchImbalanced(b, WithWavefront()) }

// The dispatch pair measures the dispatcher's own overhead (counter
// decrements, wakeups and, in layered mode, one barrier per layer) with
// no-op bodies on a balanced schedule.
func benchDispatchOverhead(b *testing.B, opts ...ExecOption) {
	sched := ImbalancedWorkload(2, 16)
	body := ImbalancedBody(0, 0)
	w, _ := NewWorld(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecuteCtx(context.Background(), w, sched, body, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecLayeredDispatch(b *testing.B)   { benchDispatchOverhead(b) }
func BenchmarkExecWavefrontDispatch(b *testing.B) { benchDispatchOverhead(b, WithWavefront()) }

// The scaled-dispatch pair measures pure per-task dispatch overhead at
// planning-benchmark shapes: 2000 trivial group tasks on 8 ranks in lean
// (WithoutTimeline) reports, so the numbers are counters, wakeups and
// scratch reuse — not bodies, spans or sleeps. ns/task is reported as its
// own metric; allocs/op divided by 2000 is the per-task allocation rate
// gated by TestWavefrontDispatchAllocFree.
func benchScaledDispatch(b *testing.B, opts ...ExecOption) {
	const tasks = 500 * 4 // layers x groups-of-2 on 8 ranks
	sched := gridSchedule(8, 500, 2)
	shared := func(tc *TaskCtx) error { return nil }
	body := func(*graph.Task) TaskFunc { return shared }
	w, _ := NewWorld(8)
	opts = append(opts, WithoutTimeline())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := ExecuteCtx(context.Background(), w, sched, body, opts...)
		if err != nil {
			b.Fatalf("%v\n%s", err, rep)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tasks), "ns/task")
}

func BenchmarkExecScaledDispatchLayered(b *testing.B) { benchScaledDispatch(b) }
func BenchmarkExecScaledDispatchWorkers(b *testing.B) { benchScaledDispatch(b, WithWavefront()) }

// The deadline pair is the scaled-dispatch pair under fault.DefaultPolicy,
// whose never-firing TaskTimeout runs every rank's share of an attempt on
// a goroutine its worker waits for: the price of abandonable attempts.
func BenchmarkExecScaledDispatchLayeredDeadline(b *testing.B) {
	benchScaledDispatch(b, WithPolicy(fault.DefaultPolicy()))
}

func BenchmarkExecScaledDispatchWorkersDeadline(b *testing.B) {
	benchScaledDispatch(b, WithPolicy(fault.DefaultPolicy()), WithWavefront())
}

// The recorder-overhead pair: NilRecorder pins the no-op fast path of an
// unused WithRecorder(nil) against the plain dispatch baseline (the two
// must be indistinguishable — a nil check per instrumented site), and
// Traced measures a live recorder (required: ≤ 5% over the baseline).
// The recorder is reset between iterations so the rings never fill;
// drops would make iterations cheaper, not slower.
func BenchmarkExecLayeredDispatchNilRecorder(b *testing.B) {
	benchDispatchOverhead(b, WithRecorder(nil))
}

func benchDispatchTraced(b *testing.B, opts ...ExecOption) {
	sched := ImbalancedWorkload(2, 16)
	body := ImbalancedBody(0, 0)
	w, _ := NewWorld(2)
	// Small rings (reset each iteration) keep the GC scan footprint of
	// the event buffers out of the measurement.
	rec := obs.New(2, obs.WithCapacity(256))
	opts = append(opts, WithRecorder(rec))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecuteCtx(context.Background(), w, sched, body, opts...); err != nil {
			b.Fatal(err)
		}
		if rec.Drops() > 0 {
			b.Fatalf("recorder dropped %d events; grow the ring", rec.Drops())
		}
		rec.Reset()
	}
}

func BenchmarkExecLayeredDispatchTraced(b *testing.B)   { benchDispatchTraced(b) }
func BenchmarkExecWavefrontDispatchTraced(b *testing.B) { benchDispatchTraced(b, WithWavefront()) }
