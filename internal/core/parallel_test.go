package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"mtask/internal/arch"
	"mtask/internal/cost"
)

// equalSchedules compares every observable field of two schedules: layer
// structure, group task lists, group sizes and the predicted times down to
// the last bit.
func equalSchedules(t *testing.T, trial int, seq, par *Schedule) {
	t.Helper()
	if seq.Time != par.Time {
		t.Fatalf("trial %d: makespan differs: sequential %v parallel %v", trial, seq.Time, par.Time)
	}
	if seq.P != par.P || len(seq.Layers) != len(par.Layers) {
		t.Fatalf("trial %d: shape differs: %d cores/%d layers vs %d cores/%d layers",
			trial, seq.P, len(seq.Layers), par.P, len(par.Layers))
	}
	for li := range seq.Layers {
		a, b := seq.Layers[li], par.Layers[li]
		if a.Time != b.Time {
			t.Fatalf("trial %d: layer %d time differs: %v vs %v", trial, li, a.Time, b.Time)
		}
		if !reflect.DeepEqual(a.Groups, b.Groups) {
			t.Fatalf("trial %d: layer %d groups differ:\n%v\n%v", trial, li, a.Groups, b.Groups)
		}
		if !reflect.DeepEqual(a.Sizes, b.Sizes) {
			t.Fatalf("trial %d: layer %d sizes differ: %v vs %v", trial, li, a.Sizes, b.Sizes)
		}
	}
}

// TestParallelSchedulerMatchesSequential is the determinism property test
// of the concurrent group-count search: on randomized DAGs, machines and
// worker counts the parallel scheduler must produce a schedule identical
// to the sequential reference, layer assignment and makespan included.
// Run it under -race to also exercise the worker pool's shared model and
// search state for data races.
func TestParallelSchedulerMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	machines := []*arch.Machine{
		arch.CHiC().Subset(2), arch.CHiC().Subset(8),
		arch.JuRoPA().Subset(4), arch.SGIAltix().Subset(6),
	}
	for trial := 0; trial < 60; trial++ {
		g := randomDAG(rng)
		mach := machines[rng.Intn(len(machines))]
		p := mach.TotalCores()
		base := Scheduler{
			Model:             &cost.Model{Machine: mach},
			DisableAdjustment: rng.Float64() < 0.3,
			RoundRobin:        rng.Float64() < 0.2,
		}
		if rng.Float64() < 0.3 {
			base.MinGroups = 1 + rng.Intn(3)
			base.MaxGroups = base.MinGroups + rng.Intn(8)
		}

		seqS := base
		seq, err := seqS.Schedule(g, p)
		if err != nil {
			t.Fatalf("trial %d: sequential: %v", trial, err)
		}

		parS := base
		parS.Parallel = 2 + rng.Intn(7)
		rng.Float64() // unused draw: keeps the random stream, and so every trial's DAG, fixed
		par, err := parS.Schedule(g, p)
		if err != nil {
			t.Fatalf("trial %d: parallel: %v", trial, err)
		}
		equalSchedules(t, trial, seq, par)
	}
}

// TestScheduleCtxCancellation checks that a canceled context aborts both
// search paths with an error wrapping ErrCanceled.
func TestScheduleCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := randomDAG(rng)
	m := model(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		s := &Scheduler{Model: m, Parallel: workers}
		_, err := s.ScheduleCtx(ctx, g, m.Machine.TotalCores())
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: got %v, want ErrCanceled", workers, err)
		}
	}
}

// TestScheduleNoCores checks the ErrNoCores sentinel on both Schedule and
// Map.
func TestScheduleNoCores(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomDAG(rng)
	m := model(2)
	if _, err := (&Scheduler{Model: m}).Schedule(g, 0); !errors.Is(err, ErrNoCores) {
		t.Fatalf("Schedule(0 cores) = %v, want ErrNoCores", err)
	}
	sched, err := (&Scheduler{Model: m}).Schedule(g, m.Machine.TotalCores())
	if err != nil {
		t.Fatal(err)
	}
	small := arch.CHiC().Subset(1)
	if _, err := Map(sched, small, Consecutive{}); !errors.Is(err, ErrNoCores) {
		t.Fatalf("Map on too-small machine = %v, want ErrNoCores", err)
	}
}

// TestGroupBounds checks that the search bounds narrow the group counts a
// schedule may use.
func TestGroupBounds(t *testing.T) {
	g := epolStep(6, 1e9, 1<<20)
	m := model(8)
	p := 32
	sched, err := (&Scheduler{Model: m, MinGroups: 2, MaxGroups: 3}).Schedule(g, p)
	if err != nil {
		t.Fatal(err)
	}
	for li, ls := range sched.Layers {
		n := ls.NumGroups()
		width := len(ls.Layer)
		wantMin := 2
		if width < wantMin {
			wantMin = width
		}
		if n < wantMin || n > 3 {
			t.Fatalf("layer %d (width %d) has %d groups, want within [%d, 3]", li, width, n, wantMin)
		}
	}
}
