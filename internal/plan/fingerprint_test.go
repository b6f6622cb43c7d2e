package plan

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mtask/internal/arch"
	"mtask/internal/graph"
	"mtask/internal/ode"
)

// fpSpec describes a graph so a test can rebuild it with one field
// changed or with its edges inserted in another order.
type fpSpec struct {
	name  string
	tasks []graph.Task
	edges []graph.Edge
	subs  map[int]*fpSpec // composed bodies by task index
}

// randomFPSpec returns a random DAG of 2..n+1 tasks with every cost field
// set and, when depth > 0, a composed body on one task. The edge from the
// first to the last task is always left out, so an edge can be added.
func randomFPSpec(rng *rand.Rand, n, depth int) *fpSpec {
	s := &fpSpec{name: fmt.Sprintf("g%d", rng.Intn(1000)), subs: map[int]*fpSpec{}}
	nt := 2 + rng.Intn(n)
	for i := 0; i < nt; i++ {
		s.tasks = append(s.tasks, graph.Task{
			Name:       fmt.Sprintf("t%d_%d", i, rng.Intn(100)),
			Kind:       graph.KindBasic,
			Work:       float64(rng.Intn(1000)) + 0.5,
			CommBytes:  rng.Intn(1 << 20),
			CommCount:  rng.Intn(8),
			BcastBytes: rng.Intn(1 << 20),
			BcastCount: rng.Intn(8),
			OutBytes:   rng.Intn(1 << 20),
			MaxWidth:   rng.Intn(64),
			Meta:       map[string]int{"i": i},
		})
	}
	for from := 0; from < nt; from++ {
		for to := from + 1; to < nt; to++ {
			if rng.Intn(3) == 0 && !(from == 0 && to == nt-1) {
				s.edges = append(s.edges, graph.Edge{From: graph.TaskID(from), To: graph.TaskID(to), Bytes: rng.Intn(1 << 16)})
			}
		}
	}
	if depth > 0 {
		i := rng.Intn(nt)
		s.tasks[i].Kind = graph.KindComposed
		s.subs[i] = randomFPSpec(rng, 6, depth-1)
	}
	return s
}

// clone deep-copies the spec so a mutation leaves the original intact.
func (s *fpSpec) clone() *fpSpec {
	c := &fpSpec{
		name:  s.name,
		tasks: append([]graph.Task(nil), s.tasks...),
		edges: append([]graph.Edge(nil), s.edges...),
		subs:  map[int]*fpSpec{},
	}
	for i, sub := range s.subs {
		c.subs[i] = sub.clone()
	}
	return c
}

// build constructs the graph, inserting the edges in the given order
// (spec order when nil).
func (s *fpSpec) build(order []int) *graph.Graph {
	g := graph.New(s.name)
	for i := range s.tasks {
		t := s.tasks[i]
		if sub, ok := s.subs[i]; ok {
			t.Sub = sub.build(nil)
		}
		g.AddTask(&t)
	}
	if order == nil {
		order = make([]int, len(s.edges))
		for i := range order {
			order[i] = i
		}
	}
	for _, i := range order {
		e := s.edges[i]
		g.MustEdge(e.From, e.To, e.Bytes)
	}
	return g
}

// fpMutations each change one fingerprinted input of a spec.
var fpMutations = []struct {
	name   string
	mutate func(rng *rand.Rand, s *fpSpec)
}{
	{"graph name", func(_ *rand.Rand, s *fpSpec) { s.name += "'" }},
	{"Name", func(rng *rand.Rand, s *fpSpec) { s.tasks[rng.Intn(len(s.tasks))].Name += "'" }},
	{"Kind", func(rng *rand.Rand, s *fpSpec) { s.tasks[rng.Intn(len(s.tasks))].Kind += 5 }},
	{"Work", func(rng *rand.Rand, s *fpSpec) { s.tasks[rng.Intn(len(s.tasks))].Work *= 2 }},
	{"CommBytes", func(rng *rand.Rand, s *fpSpec) { s.tasks[rng.Intn(len(s.tasks))].CommBytes++ }},
	{"CommCount", func(rng *rand.Rand, s *fpSpec) { s.tasks[rng.Intn(len(s.tasks))].CommCount++ }},
	{"BcastBytes", func(rng *rand.Rand, s *fpSpec) { s.tasks[rng.Intn(len(s.tasks))].BcastBytes++ }},
	{"BcastCount", func(rng *rand.Rand, s *fpSpec) { s.tasks[rng.Intn(len(s.tasks))].BcastCount++ }},
	{"OutBytes", func(rng *rand.Rand, s *fpSpec) { s.tasks[rng.Intn(len(s.tasks))].OutBytes++ }},
	{"MaxWidth", func(rng *rand.Rand, s *fpSpec) { s.tasks[rng.Intn(len(s.tasks))].MaxWidth++ }},
	{"Sub body", func(rng *rand.Rand, s *fpSpec) {
		for _, sub := range s.subs {
			sub.tasks[rng.Intn(len(sub.tasks))].Work += 1
		}
	}},
	{"edge Bytes", func(rng *rand.Rand, s *fpSpec) {
		if len(s.edges) > 0 {
			s.edges[rng.Intn(len(s.edges))].Bytes++
		} else {
			s.edges = append(s.edges, graph.Edge{From: 0, To: 1, Bytes: 1})
		}
	}},
	{"add edge", func(rng *rand.Rand, s *fpSpec) {
		has := map[graph.Edge]bool{}
		for _, e := range s.edges {
			has[graph.Edge{From: e.From, To: e.To}] = true
		}
		var free []graph.Edge
		for from := range s.tasks {
			for to := from + 1; to < len(s.tasks); to++ {
				if e := (graph.Edge{From: graph.TaskID(from), To: graph.TaskID(to)}); !has[e] {
					free = append(free, e)
				}
			}
		}
		e := free[rng.Intn(len(free))]
		e.Bytes = rng.Intn(1 << 16)
		s.edges = append(s.edges, e)
	}},
	{"remove edge", func(rng *rand.Rand, s *fpSpec) {
		if len(s.edges) == 0 {
			s.edges = append(s.edges, graph.Edge{From: 0, To: 1})
			return
		}
		i := rng.Intn(len(s.edges))
		s.edges = append(s.edges[:i], s.edges[i+1:]...)
	}},
}

// TestGraphFingerprintProperty checks over random DAGs that changing any
// one fingerprinted input moves GraphFingerprint, and that edge insertion
// order and task Meta do not.
func TestGraphFingerprintProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for iter := 0; iter < 200; iter++ {
		base := randomFPSpec(rng, 24, 1)
		want := GraphFingerprint(base.build(nil))

		order := rng.Perm(len(base.edges))
		if got := GraphFingerprint(base.build(order)); got != want {
			t.Fatalf("iter %d: shuffled edge insertion changed the fingerprint: %x vs %x", iter, got, want)
		}
		meta := base.clone()
		meta.tasks[rng.Intn(len(meta.tasks))].Meta = map[string]int{"other": iter}
		if got := GraphFingerprint(meta.build(nil)); got != want {
			t.Fatalf("iter %d: changing Meta changed the fingerprint", iter)
		}

		for _, m := range fpMutations {
			s := base.clone()
			m.mutate(rng, s)
			if got := GraphFingerprint(s.build(nil)); got == want {
				t.Fatalf("iter %d: changing %s left the fingerprint at %x", iter, m.name, got)
			}
		}
	}
}

// TestFingerprintCostFieldsDoNotOverlap checks that every cost field is
// its own word: (CommBytes 1, CommCount 0) and (CommBytes 0, CommCount
// 65536) — and the same for the broadcast pair — used to pack into the
// same word, so two layers priced differently fingerprinted alike.
func TestFingerprintCostFieldsDoNotOverlap(t *testing.T) {
	one := func(t graph.Task) *graph.Graph {
		g := graph.New("pair")
		g.AddTask(&t)
		return g
	}
	pairs := map[string][2]graph.Task{
		"comm":  {{CommBytes: 1}, {CommCount: 1 << 16}},
		"bcast": {{BcastBytes: 1}, {BcastCount: 1 << 16}},
	}
	for name, p := range pairs {
		a, b := one(p[0]), one(p[1])
		if GraphFingerprint(a) == GraphFingerprint(b) {
			t.Errorf("%s: GraphFingerprint collides", name)
		}
		if LayerFingerprint(a, graph.Layer{0}) == LayerFingerprint(b, graph.Layer{0}) {
			t.Errorf("%s: LayerFingerprint collides", name)
		}
	}
}

// TestLayerFingerprintIgnoresNames checks that layer reuse stays
// positional: renaming a task does not move its layer's fingerprint.
func TestLayerFingerprintIgnoresNames(t *testing.T) {
	g1 := ode.BuildPABGraph(40000, 600, 8, 2, 2)
	g2 := g1.Clone()
	g2.Task(3).Name += "-renamed"
	layer := graph.Layer{1, 2, 3}
	if LayerFingerprint(g1, layer) != LayerFingerprint(g2, layer) {
		t.Fatal("renaming a task moved its layer fingerprint")
	}
	if GraphFingerprint(g1) == GraphFingerprint(g2) {
		t.Fatal("renaming a task left the graph fingerprint unchanged")
	}
}

// TestRenamedGraphPlansItsOwnSource is the regression test for task names
// outside the cache key: a copy with one task renamed used to hit the
// first graph's mapping and hand back that graph as its Source.
func TestRenamedGraphPlansItsOwnSource(t *testing.T) {
	machine := arch.CHiC().SubsetCores(32)
	g1 := ode.BuildPABGraph(40000, 600, 8, 2, 2)
	g2 := g1.Clone()
	g2.Task(3).Name += "-renamed"
	p := New()
	ctx := context.Background()
	if _, err := p.Plan(ctx, g1, machine); err != nil {
		t.Fatal(err)
	}
	var info Info
	mp, err := p.Plan(ctx, g2, machine, WithInfo(&info))
	if err != nil {
		t.Fatal(err)
	}
	if info.CacheHit {
		t.Fatal("renamed graph hit the cache")
	}
	if mp.Schedule.Source != g2 {
		t.Fatal("renamed graph's mapping has another graph as its Source")
	}
}

// TestGraphFingerprintAllocFree gates the one-pass fingerprint: hashing a
// 200k-task graph allocates nothing.
func TestGraphFingerprintAllocFree(t *testing.T) {
	g := ode.ScaledSolverGraph(200_000)
	if allocs := testing.AllocsPerRun(3, func() { GraphFingerprint(g) }); allocs != 0 {
		t.Fatalf("GraphFingerprint allocates %v times per call, want 0", allocs)
	}
}

var fpSink uint64

// BenchmarkGraphFingerprint hashes the 200k-task graph of the
// lib-wavefront benchmark workload.
func BenchmarkGraphFingerprint(b *testing.B) {
	g := ode.ScaledSolverGraph(200_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fpSink = GraphFingerprint(g)
	}
}
