package ode

import (
	"runtime/debug"
	"testing"

	"mtask/internal/arch"
	"mtask/internal/core"
	"mtask/internal/cost"
	"mtask/internal/graph"
)

func TestBuildEPOLGraphShape(t *testing.T) {
	const r, steps = 4, 2
	g := BuildEPOLGraph(1000, 14, r, steps)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Per step: R(R+1)/2 micro steps + 1 combine; plus start/stop.
	want := steps*(r*(r+1)/2+1) + 2
	if g.Len() != want {
		t.Fatalf("EPOL graph has %d tasks, want %d", g.Len(), want)
	}
	// Chain contraction reduces each step to R chains + combine.
	res := graph.ContractChains(g)
	wantC := steps*(r+1) + 2
	if res.Graph.Len() != wantC {
		t.Fatalf("contracted EPOL graph has %d tasks, want %d", res.Graph.Len(), wantC)
	}
	layers := graph.Layers(res.Graph)
	if len(layers) != 2*steps {
		t.Fatalf("EPOL graph has %d layers, want %d", len(layers), 2*steps)
	}
}

func TestBuildIRKGraphShape(t *testing.T) {
	const k, m, steps = 4, 3, 2
	g := BuildIRKGraph(1000, 14, k, m, steps)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want := steps*(1+k*m+1) + 2
	if g.Len() != want {
		t.Fatalf("IRK graph has %d tasks, want %d", g.Len(), want)
	}
	layers := graph.Layers(g)
	// Per step: init, m stage layers, combine.
	if len(layers) != steps*(m+2) {
		t.Fatalf("IRK graph has %d layers, want %d", len(layers), steps*(m+2))
	}
	// Stage layers have width K.
	if len(layers[1]) != k {
		t.Fatalf("stage layer width %d, want %d", len(layers[1]), k)
	}
}

func TestBuildDIIRKGraphCommHeavierThanIRK(t *testing.T) {
	const k, steps = 4, 1
	n := 256
	irk := BuildIRKGraph(n, 4*float64(n), k, 3, steps)
	diirk := BuildDIIRKGraph(n, 4*float64(n), k, 3, steps)
	if err := diirk.Validate(); err != nil {
		t.Fatal(err)
	}
	// DIIRK stage tasks carry the pivot broadcasts.
	var irkB, diirkB int
	for _, task := range irk.Tasks() {
		irkB += task.BcastCount
	}
	for _, task := range diirk.Tasks() {
		diirkB += task.BcastCount
	}
	if irkB != 0 || diirkB != k*3*n {
		t.Fatalf("broadcast counts: IRK %d, DIIRK %d (want 0 and %d)", irkB, diirkB, k*3*n)
	}
}

func TestBuildPABGraphShape(t *testing.T) {
	const k, m, steps = 8, 2, 3
	g := BuildPABGraph(1000, 14, k, m, steps)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Len() != steps*k+2 {
		t.Fatalf("PAB graph has %d tasks, want %d", g.Len(), steps*k+2)
	}
	layers := graph.Layers(g)
	if len(layers) != steps {
		t.Fatalf("PAB graph has %d layers, want %d", len(layers), steps)
	}
	for li, layer := range layers {
		if len(layer) != k {
			t.Fatalf("layer %d width %d, want %d", li, len(layer), k)
		}
	}
}

func TestSolverGraphsScheduleMap(t *testing.T) {
	// End-to-end smoke: schedule + map + shape checks for all builders.
	mach := arch.CHiC().Subset(16)
	model := &cost.Model{Machine: mach}
	sched := &core.Scheduler{Model: model}
	for _, g := range []*graph.Graph{
		BuildEPOLGraph(4096, 14, 8, 1),
		BuildIRKGraph(4096, 14, 4, 3, 1),
		BuildDIIRKGraph(256, 14, 4, 2, 1),
		BuildPABGraph(4096, 14, 8, 2, 2),
	} {
		s, err := sched.Schedule(g, 64)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		mp, err := core.Map(s, mach, core.Consecutive{})
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if err := mp.Validate(); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
	}
}

func TestPABMGraphSchedulesTaskParallel(t *testing.T) {
	// With K=8 communication-heavy stages on 256 cores, the layer-based
	// algorithm must pick a task-parallel schedule (the paper's tp
	// version beats dp, Fig. 13 left).
	mach := arch.CHiC().Subset(64)
	model := &cost.Model{Machine: mach}
	g := BuildPABGraph(20000, 14, 8, 2, 1)
	s, err := (&core.Scheduler{Model: model}).Schedule(g, 256)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Layers[0].NumGroups(); got < 2 {
		t.Fatalf("PABM layer scheduled with %d groups; expected task parallelism", got)
	}
}

// TestScaledGraphAllocsIndependentOfEdges gates the graph's one adjacency
// build: building the scaled solver graph and reading it once allocates
// the same small number of blocks at 10k tasks as at 100k, so neither the
// builder nor the build allocates per task or per edge. The collector is
// off while counting: a collection empties the pool fmt.Sprintf takes its
// printer from, which would add blocks that depend on timing.
func TestScaledGraphAllocsIndependentOfEdges(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's pool drops inflate the counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(tasks int) float64 {
		return testing.AllocsPerRun(2, func() { ScaledSolverGraph(tasks).Succ(0) })
	}
	small, large := allocs(10_000), allocs(100_000)
	if small != large || large > 16 {
		t.Fatalf("building and reading allocates %v blocks at 10k tasks and %v at 100k, want the same, at most 16", small, large)
	}
}
