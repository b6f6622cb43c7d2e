package ode

import (
	"context"
	"testing"
	"time"

	"mtask/internal/fault"
	"mtask/internal/runtime"
)

func TestScaledExecMatchesReference(t *testing.T) {
	// The scaled synthetic bodies must reproduce the sequential reference
	// bitwise under every executor mode — the same oracle discipline as
	// the real solver graphs, at the shapes the lib-wavefront benchmark
	// workload runs.
	g := BuildUnrolledGraph(20, 5, 4, 64, 600) // 400 tasks
	want := ScaledReference(g)
	modes := map[string][]runtime.ExecOption{
		"layered":   nil,
		"wavefront": {runtime.WithWavefront()},
		"lean":      {runtime.WithWavefront(), runtime.WithoutTimeline()},
	}
	for _, P := range []int{4, 8} {
		sched := pabSchedule(t, g, P)
		for mode, opts := range modes {
			w, _ := runtime.NewWorld(P)
			st := NewScaledExecState(g)
			rep, err := runtime.ExecuteCtx(context.Background(), w, sched, st.Body, opts...)
			if err != nil {
				t.Fatalf("%s on %d cores: %v\n%s", mode, P, err, rep)
			}
			if rep.Layers != len(sched.Layers) {
				t.Fatalf("%s on %d cores: %d of %d layers done", mode, P, rep.Layers, len(sched.Layers))
			}
			if err := CompareScaledOutputs(want, st.Outputs()); err != nil {
				t.Fatalf("%s on %d cores: %v", mode, P, err)
			}
		}
	}
}

func TestScaledExecIdenticalUnderInjectedFaults(t *testing.T) {
	// Injected errors and panics with retries must leave the scaled
	// trajectory byte-identical to the reference in both execution modes
	// (the bodies are idempotent by construction).
	g := BuildUnrolledGraph(10, 3, 4, 64, 600)
	want := ScaledReference(g)
	sched := pabSchedule(t, g, 8)
	pol := fault.DefaultPolicy()
	pol.MaxRetries = 8
	pol.BaseBackoff = 50 * time.Microsecond
	for _, mode := range [][]runtime.ExecOption{nil, {runtime.WithWavefront()}} {
		for seed := int64(1); seed <= 2; seed++ {
			inj := &fault.Injector{Seed: seed, PError: 0.05, PPanic: 0.03}
			w, _ := runtime.NewWorld(8)
			st := NewScaledExecState(g)
			rep, err := runtime.ExecuteCtx(context.Background(), w, sched, st.Body,
				append([]runtime.ExecOption{runtime.WithPolicy(pol), runtime.WithInjector(inj)}, mode...)...)
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, rep)
			}
			if err := CompareScaledOutputs(want, st.Outputs()); err != nil {
				t.Fatalf("seed %d: results diverged: %v\n%s", seed, err, rep)
			}
		}
	}
}
