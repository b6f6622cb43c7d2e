package ode

import (
	"context"
	"testing"

	"mtask/internal/arch"
	"mtask/internal/graph"
	"mtask/internal/plan"
	"mtask/internal/runtime"
)

// Execution benchmarks of the solver hot loops: one iteration is one full
// time step of the method on a world of goroutines, so allocs/op is the
// per-timestep allocation bill of the collective-heavy inner loop. Run
// with
//
//	go test -run '^$' -bench 'BenchmarkExec' -benchtime 200x -count 3 ./internal/ode

// benchPABTimestep runs b.N PABM time steps in a single solver invocation,
// so per-op numbers converge to the marginal cost of one step.
func benchPABTimestep(b *testing.B, groups int) {
	b.Helper()
	sys := NewLinearDecay(256)
	w, err := runtime.NewWorld(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := ParallelPAB(w, sys, 4, 2, RunOpts{Groups: groups, Steps: b.N, H: 1e-4}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExecPABTimestepDP: data-parallel PABM, K*(1+m) global
// allgathers per step on all 8 cores.
func BenchmarkExecPABTimestepDP(b *testing.B) { benchPABTimestep(b, 1) }

// BenchmarkExecPABTimestepTP: task-parallel PABM, (1+m) group allgathers
// plus one orthogonal exchange per step (one group per stage).
func BenchmarkExecPABTimestepTP(b *testing.B) { benchPABTimestep(b, 4) }

// BenchmarkExecIRKTimestepTP: task-parallel IRK, m group + m orthogonal
// allgathers and one global gather per step.
func BenchmarkExecIRKTimestepTP(b *testing.B) {
	sys := NewLinearDecay(256)
	w, err := runtime.NewWorld(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := ParallelIRK(w, sys, 4, 3, RunOpts{Groups: 4, Steps: b.N, H: 1e-4}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExecEPOLTimestepTP: task-parallel extrapolation, R+1 group
// allgathers per group and one orthogonal re-distribution per step.
func BenchmarkExecEPOLTimestepTP(b *testing.B) {
	sys := NewLinearDecay(256)
	w, err := runtime.NewWorld(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := ParallelEPOL(w, sys, 4, RunOpts{Groups: 2, Steps: b.N, H: 1e-4, Control: true}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExecStateSuite is one operation of the benchmark's ode-layered
// workload without its harness: the four solver graphs at n=16384 over 8
// steps, each planned cold and executed in layered mode on 4 ranks with
// ExecState's vector payloads. Bytes are the published output vectors
// (8·n per basic task), so MB/s is payload produced per second; the
// bitwise check against Reference runs outside the timer.
func BenchmarkExecStateSuite(b *testing.B) {
	const n, P = 16384, 4
	ctx := context.Background()
	m := arch.CHiC().SubsetCores(P)
	graphs := solverGraphs(n, 8)
	wants := make([]map[graph.TaskID][]float64, len(graphs))
	tasks := 0
	for i, g := range graphs {
		wants[i] = Reference(g, n)
		tasks += len(wants[i])
	}
	states := make([]*ExecState, len(graphs))
	b.SetBytes(int64(8 * n * tasks))
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i, g := range graphs {
			mp, err := plan.New().Plan(ctx, g, m)
			if err != nil {
				b.Fatal(err)
			}
			w, err := runtime.NewWorld(P)
			if err != nil {
				b.Fatal(err)
			}
			states[i] = NewExecState(g, n)
			if _, err := runtime.ExecuteCtx(ctx, w, mp.Schedule, states[i].Body); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		for i := range graphs {
			if err := CompareOutputs(wants[i], states[i].Outputs()); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
}
