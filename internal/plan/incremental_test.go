package plan

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mtask/internal/arch"
	"mtask/internal/core"
	"mtask/internal/graph"
	"mtask/internal/ode"
)

// requireMappingsBitwise fails unless the two mappings are bit-for-bit
// identical: same layering, same group partitions and sizes, same float
// bits of every symbolic time, same contraction and the same physical core
// assignment.
func requireMappingsBitwise(t *testing.T, label string, a, b *core.Mapping) {
	t.Helper()
	if math.Float64bits(a.Schedule.Time) != math.Float64bits(b.Schedule.Time) {
		t.Fatalf("%s: symbolic makespan differs: %v vs %v", label, a.Schedule.Time, b.Schedule.Time)
	}
	if !reflect.DeepEqual(a.Schedule.NodeOf, b.Schedule.NodeOf) {
		t.Fatalf("%s: contraction NodeOf differs", label)
	}
	if len(a.Schedule.Layers) != len(b.Schedule.Layers) {
		t.Fatalf("%s: layer count differs: %d vs %d", label, len(a.Schedule.Layers), len(b.Schedule.Layers))
	}
	for li := range a.Schedule.Layers {
		la, lb := a.Schedule.Layers[li], b.Schedule.Layers[li]
		if math.Float64bits(la.Time) != math.Float64bits(lb.Time) {
			t.Fatalf("%s: layer %d time differs: %v vs %v", label, li, la.Time, lb.Time)
		}
		if !reflect.DeepEqual(la.Layer, lb.Layer) {
			t.Fatalf("%s: layer %d task list differs", label, li)
		}
		if !reflect.DeepEqual(la.Sizes, lb.Sizes) {
			t.Fatalf("%s: layer %d sizes differ: %v vs %v", label, li, la.Sizes, lb.Sizes)
		}
		if len(la.Groups) != len(lb.Groups) {
			t.Fatalf("%s: layer %d group count differs: %d vs %d", label, li, len(la.Groups), len(lb.Groups))
		}
		for gi := range la.Groups {
			if !reflect.DeepEqual(la.Groups[gi], lb.Groups[gi]) {
				t.Fatalf("%s: layer %d group %d differs: %v vs %v",
					label, li, gi, la.Groups[gi], lb.Groups[gi])
			}
		}
	}
	if !reflect.DeepEqual(a.Cores, b.Cores) {
		t.Fatalf("%s: physical core assignment differs", label)
	}
}

// TestIncrementalEquivalence is the acceptance property of incremental
// replanning: over random solver-graph perturbations (time-step extension
// plus random work changes), a plan that reuses layer schedules from the
// family index must be bit-identical — mapping and simulated makespan — to
// a from-scratch cold plan of the same graph.
func TestIncrementalEquivalence(t *testing.T) {
	machine := arch.CHiC().SubsetCores(64)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))

	for iter := 0; iter < 8; iter++ {
		p := New()
		// Warm the family index with the base graph.
		base := ode.BuildPABGraph(40000, 600, 8, 2, 6)
		if _, err := p.Plan(ctx, base, machine); err != nil {
			t.Fatal(err)
		}

		// Perturb: extend by 1-2 time steps, then scale the work of a few
		// random tasks (perturbing their layers' fingerprints).
		pg := ode.BuildPABGraph(40000, 600, 8, 2, 7+rng.Intn(2))
		for j, n := 0, rng.Intn(4); j < n; j++ {
			tk := pg.Task(graph.TaskID(rng.Intn(pg.Len())))
			if tk.Kind == graph.KindBasic {
				tk.Work *= 1 + 0.25*rng.Float64()
			}
		}

		var info Info
		par := 1 + 7*(iter%2) // alternate one search worker / a pool of eight
		inc, err := p.Plan(ctx, pg, machine,
			WithoutCache(), WithInfo(&info), WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		if !info.Incremental || info.ReusedLayers == 0 {
			t.Fatalf("iter %d: expected incremental reuse, got %+v", iter, info)
		}

		var coldInfo Info
		cold, err := New().Plan(ctx, pg, machine,
			WithoutCache(), WithoutIncremental(), WithParallelism(1), WithInfo(&coldInfo))
		if err != nil {
			t.Fatal(err)
		}
		if coldInfo.Incremental || coldInfo.ReusedLayers != 0 {
			t.Fatalf("iter %d: WithoutIncremental still reused: %+v", iter, coldInfo)
		}

		requireMappingsBitwise(t, "incremental vs cold", inc, cold)
		if mi, mc := simulatedMakespan(t, inc), simulatedMakespan(t, cold); math.Float64bits(mi) != math.Float64bits(mc) {
			t.Fatalf("iter %d: simulated makespan differs: %v vs %v", iter, mi, mc)
		}
	}
}

// TestIncrementalExtendedStepFastPath checks the headline scenario: a
// solver graph extended by one time step reuses every per-step layer
// already planned and patches only what is genuinely new.
func TestIncrementalExtendedStepFastPath(t *testing.T) {
	machine := arch.CHiC().SubsetCores(64)
	ctx := context.Background()
	p := New()

	if _, err := p.Plan(ctx, ode.BuildPABGraph(40000, 600, 8, 2, 6), machine); err != nil {
		t.Fatal(err)
	}
	var info Info
	if _, err := p.Plan(ctx, ode.BuildPABGraph(40000, 600, 8, 2, 7), machine, WithInfo(&info)); err != nil {
		t.Fatal(err)
	}
	if !info.Cold || !info.Incremental {
		t.Fatalf("extended graph should cold-plan incrementally, got %+v", info)
	}
	if info.ReusedLayers == 0 {
		t.Fatalf("extended graph reused no layers: %+v", info)
	}
	// Every layer of the extended PABM graph repeats a fingerprint the
	// base plan recorded (the extra step's layers match earlier steps),
	// so nothing should need searching.
	if info.PatchedLayers != 0 {
		t.Fatalf("extended graph patched %d layers, want 0 (reused %d)",
			info.PatchedLayers, info.ReusedLayers)
	}
}

// TestFamilyKeySeparation checks that layer reuse never crosses request
// families: the same graph planned on a different core count must not
// adopt the other family's layer schedules.
func TestFamilyKeySeparation(t *testing.T) {
	machine := arch.CHiC().SubsetCores(64)
	ctx := context.Background()
	p := New()
	g := ode.BuildPABGraph(40000, 600, 8, 2, 4)

	if _, err := p.Plan(ctx, g, machine); err != nil {
		t.Fatal(err)
	}
	var info Info
	if _, err := p.Plan(ctx, g, machine, WithCores(32), WithInfo(&info)); err != nil {
		t.Fatal(err)
	}
	if info.Incremental || info.ReusedLayers != 0 {
		t.Fatalf("layer reuse crossed core-count families: %+v", info)
	}
}
