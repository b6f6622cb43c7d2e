package plan

import (
	"context"
	"errors"
	"testing"

	"mtask/internal/arch"
	"mtask/internal/cluster"
	"mtask/internal/core"
	"mtask/internal/cost"
	"mtask/internal/graph"
	"mtask/internal/ode"
)

// solverWorkloads returns the fig13/fig15 solver graphs of the evaluation
// at reduced scale.
func solverWorkloads() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"pabm":  ode.BuildPABGraph(40000, 600, 8, 2, 4),
		"pab":   ode.BuildPABGraph(40000, 600, 8, 0, 4),
		"epol":  ode.BuildEPOLGraph(40000, 600, 8, 2),
		"irk":   ode.BuildIRKGraph(40000, 600, 4, 2, 2),
		"diirk": ode.BuildDIIRKGraph(512, 600, 4, 2, 2),
	}
}

func simulatedMakespan(t *testing.T, mp *core.Mapping) float64 {
	t.Helper()
	model := &cost.Model{Machine: mp.Machine}
	prog, _, err := cluster.FromMapping(model, mp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Simulate(model, prog)
	if err != nil {
		t.Fatal(err)
	}
	return res.Makespan
}

// TestPlanMatchesSequentialOnSolverGraphs is the acceptance check of the
// concurrent planner: on every solver workload of the evaluation and
// several strategies, the parallel cache-backed plan must equal the
// sequential, uncached reference — same symbolic makespan, same layer
// assignment, and the same simulated makespan.
func TestPlanMatchesSequentialOnSolverGraphs(t *testing.T) {
	machine := arch.CHiC().SubsetCores(64)
	strategies := []core.Strategy{core.Consecutive{}, core.Scattered{}, core.Mixed{D: 2}}
	for name, g := range solverWorkloads() {
		for _, strat := range strategies {
			seq, err := New().Plan(context.Background(), g, machine,
				WithStrategy(strat), WithParallelism(1), WithoutCache())
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", name, strat.Name(), err)
			}
			par, err := New().Plan(context.Background(), g, machine,
				WithStrategy(strat), WithParallelism(8))
			if err != nil {
				t.Fatalf("%s/%s parallel: %v", name, strat.Name(), err)
			}
			if seq.Schedule.Time != par.Schedule.Time {
				t.Fatalf("%s/%s: symbolic makespan differs: %v vs %v",
					name, strat.Name(), seq.Schedule.Time, par.Schedule.Time)
			}
			for li := range seq.Schedule.Layers {
				a, b := seq.Schedule.Layers[li], par.Schedule.Layers[li]
				if a.NumGroups() != b.NumGroups() || a.Time != b.Time {
					t.Fatalf("%s/%s: layer %d differs: g=%d T=%v vs g=%d T=%v",
						name, strat.Name(), li, a.NumGroups(), a.Time, b.NumGroups(), b.Time)
				}
			}
			if ms, mp := simulatedMakespan(t, seq), simulatedMakespan(t, par); ms != mp {
				t.Fatalf("%s/%s: simulated makespan differs: %v vs %v", name, strat.Name(), ms, mp)
			}
		}
	}
}

// TestPlanCache checks that a repeated request is served from the cache
// (same mapping object) and that any input change misses.
func TestPlanCache(t *testing.T) {
	machine := arch.CHiC().SubsetCores(32)
	g := ode.BuildPABGraph(40000, 600, 8, 2, 2)
	p := New()
	ctx := context.Background()

	mp1, err := p.Plan(ctx, g, machine)
	if err != nil {
		t.Fatal(err)
	}
	mp2, err := p.Plan(ctx, g, machine)
	if err != nil {
		t.Fatal(err)
	}
	if mp1 != mp2 {
		t.Fatal("second identical request did not hit the cache")
	}
	if hits, misses := p.Cache().Stats(); hits != 1 || misses != 1 {
		t.Fatalf("cache stats = %d hits / %d misses, want 1/1", hits, misses)
	}

	// A structurally identical but re-built graph still hits (fingerprint
	// keyed, not identity keyed).
	mp3, err := p.Plan(ctx, ode.BuildPABGraph(40000, 600, 8, 2, 2), machine)
	if err != nil {
		t.Fatal(err)
	}
	if mp3 != mp1 {
		t.Fatal("structurally identical graph missed the cache")
	}

	// Different strategy, core count or graph must all miss.
	mp4, err := p.Plan(ctx, g, machine, WithStrategy(core.Scattered{}))
	if err != nil {
		t.Fatal(err)
	}
	mp5, err := p.Plan(ctx, g, machine, WithCores(16))
	if err != nil {
		t.Fatal(err)
	}
	mp6, err := p.Plan(ctx, ode.BuildPABGraph(40000, 600, 8, 2, 3), machine)
	if err != nil {
		t.Fatal(err)
	}
	if mp4 == mp1 || mp5 == mp1 || mp6 == mp1 {
		t.Fatal("changed request was served a stale cached mapping")
	}

	// WithoutCache bypasses entirely.
	mp7, err := p.Plan(ctx, g, machine, WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	if mp7 == mp1 {
		t.Fatal("WithoutCache returned the cached mapping")
	}
}

// TestPlanConcurrentRequests hammers one planner from many goroutines —
// the heavy-traffic case — and checks every response for validity and
// mutual consistency. Run under -race.
func TestPlanConcurrentRequests(t *testing.T) {
	machine := arch.CHiC().SubsetCores(32)
	g := ode.BuildEPOLGraph(40000, 600, 8, 2)
	p := New()
	ctx := context.Background()

	const clients = 16
	results := make(chan *core.Mapping, clients)
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			mp, err := p.Plan(ctx, g, machine)
			errs <- err
			results <- mp
		}()
	}
	var first *core.Mapping
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		mp := <-results
		if err := mp.Validate(); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = mp
		} else if mp.Schedule.Time != first.Schedule.Time {
			t.Fatalf("concurrent responses disagree: %v vs %v", mp.Schedule.Time, first.Schedule.Time)
		}
	}
}

// TestPlanSentinels checks the errors.Is contract of the planning
// pipeline.
func TestPlanSentinels(t *testing.T) {
	ctx := context.Background()
	good := ode.BuildPABGraph(1000, 600, 4, 0, 2)
	machine := arch.CHiC().Subset(2)
	p := New()

	if _, err := p.Plan(ctx, good, &arch.Machine{Name: "bad"}); !errors.Is(err, arch.ErrInvalidMachine) {
		t.Fatalf("invalid machine: got %v, want ErrInvalidMachine", err)
	}

	cyclic := graph.New("cyclic")
	a := cyclic.AddBasic("a", 1)
	b := cyclic.AddBasic("b", 1)
	cyclic.MustEdge(a, b, 0)
	cyclic.MustEdge(b, a, 0)
	if _, err := p.Plan(ctx, cyclic, machine); !errors.Is(err, graph.ErrCyclicGraph) {
		t.Fatalf("cyclic graph: got %v, want ErrCyclicGraph", err)
	}

	if _, err := p.Plan(ctx, good, machine, WithCores(-1)); !errors.Is(err, core.ErrNoCores) {
		t.Fatalf("negative cores: got %v, want ErrNoCores", err)
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := p.Plan(canceled, good, machine); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("canceled ctx: got %v, want ErrCanceled", err)
	}
}

// TestFingerprints checks that the fingerprints react to every scheduling-
// relevant input.
func TestFingerprints(t *testing.T) {
	g1 := ode.BuildPABGraph(40000, 600, 8, 2, 2)
	g2 := ode.BuildPABGraph(40000, 600, 8, 2, 2)
	if GraphFingerprint(g1) != GraphFingerprint(g2) {
		t.Fatal("identical graphs fingerprint differently")
	}
	g2.Task(1).Work *= 2
	if GraphFingerprint(g1) == GraphFingerprint(g2) {
		t.Fatal("changed work not reflected in fingerprint")
	}
	g3 := ode.BuildPABGraph(40000, 600, 8, 2, 3)
	if GraphFingerprint(g1) == GraphFingerprint(g3) {
		t.Fatal("different structure fingerprints equal")
	}

	m1, m2 := arch.CHiC(), arch.CHiC()
	if MachineFingerprint(m1) != MachineFingerprint(m2) {
		t.Fatal("identical machines fingerprint differently")
	}
	m2.Links[arch.LevelNetwork].Bandwidth *= 2
	if MachineFingerprint(m1) == MachineFingerprint(m2) {
		t.Fatal("changed link bandwidth not reflected in fingerprint")
	}
	if MachineFingerprint(m1) == MachineFingerprint(arch.JuRoPA()) {
		t.Fatal("different machines fingerprint equal")
	}
}

// TestCacheLRU checks capacity-bounded eviction order within one shard
// (a single-shard cache is the pre-sharding LRU).
func TestCacheLRU(t *testing.T) {
	c := NewShardedCache(2, 1)
	mk := func(i int) (Key, *core.Mapping) {
		return Key{Graph: uint64(i)}, &core.Mapping{}
	}
	k1, m1 := mk(1)
	k2, m2 := mk(2)
	k3, m3 := mk(3)
	c.Add(k1, m1)
	c.Add(k2, m2)
	if _, ok := c.Get(k1); !ok { // touch k1 -> k2 becomes LRU
		t.Fatal("k1 missing")
	}
	c.Add(k3, m3)
	if _, ok := c.Get(k2); ok {
		t.Fatal("k2 should have been evicted")
	}
	if got, ok := c.Get(k1); !ok || got != m1 {
		t.Fatal("k1 lost")
	}
	if got, ok := c.Get(k3); !ok || got != m3 {
		t.Fatal("k3 lost")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}
