package graph

import (
	"math/rand"
	"strings"
	"testing"
)

// diamond builds the graph a -> {b, c} -> d.
func diamond(t *testing.T) (*Graph, [4]TaskID) {
	t.Helper()
	g := New("diamond")
	a := g.AddBasic("a", 1)
	b := g.AddBasic("b", 2)
	c := g.AddBasic("c", 3)
	d := g.AddBasic("d", 4)
	g.MustEdge(a, b, 10)
	g.MustEdge(a, c, 10)
	g.MustEdge(b, d, 10)
	g.MustEdge(c, d, 10)
	return g, [4]TaskID{a, b, c, d}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New("g")
	a := g.AddBasic("a", 1)
	if err := g.AddEdge(a, a, 0); err == nil {
		t.Error("self edge accepted")
	}
	if err := g.AddEdge(a, TaskID(99), 0); err == nil {
		t.Error("edge to unknown task accepted")
	}
	if err := g.AddEdge(TaskID(-1), a, 0); err == nil {
		t.Error("edge from invalid task accepted")
	}
}

func TestDuplicateEdgeMerges(t *testing.T) {
	g := New("g")
	a := g.AddBasic("a", 1)
	b := g.AddBasic("b", 1)
	g.MustEdge(a, b, 5)
	g.MustEdge(a, b, 7)
	if got := g.EdgeBytes(a, b); got != 12 {
		t.Fatalf("merged edge bytes = %d, want 12", got)
	}
	if len(g.Succ(a)) != 1 || len(g.Pred(b)) != 1 {
		t.Fatal("duplicate edge created duplicate adjacency")
	}
}

func TestTopoOrder(t *testing.T) {
	g, ids := diamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[TaskID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("edge %d->%d violates topo order", e.From, e.To)
		}
	}
	if order[0] != ids[0] || order[3] != ids[3] {
		t.Fatalf("unexpected order %v", order)
	}
}

func TestCycleDetected(t *testing.T) {
	g := New("cyc")
	a := g.AddBasic("a", 1)
	b := g.AddBasic("b", 1)
	g.MustEdge(a, b, 0)
	g.MustEdge(b, a, 0)
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed cycle")
	}
}

func TestValidateStartStop(t *testing.T) {
	g, _ := diamond(t)
	start, stop := g.AddStartStop()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(g.Pred(start)) != 0 || len(g.Succ(stop)) != 0 {
		t.Fatal("start/stop not source/sink")
	}
	if len(g.Succ(start)) != 1 || len(g.Pred(stop)) != 1 {
		t.Fatalf("diamond has one source and one sink; start succ=%d stop pred=%d",
			len(g.Succ(start)), len(g.Pred(stop)))
	}
	// A second start node must be rejected.
	g.AddTask(&Task{Name: "start2", Kind: KindStart})
	if err := g.Validate(); err == nil {
		t.Fatal("duplicate start accepted")
	}
}

func TestReachableIndependent(t *testing.T) {
	g, ids := diamond(t)
	a, b, c, d := ids[0], ids[1], ids[2], ids[3]
	if !g.Reachable(a, d) {
		t.Error("a should reach d")
	}
	if g.Reachable(d, a) {
		t.Error("d should not reach a")
	}
	if !g.Independent(b, c) {
		t.Error("b and c are independent")
	}
	if g.Independent(a, d) {
		t.Error("a and d are dependent")
	}
	if g.Independent(b, b) {
		t.Error("a task is not independent of itself")
	}
}

func TestCriticalPathWork(t *testing.T) {
	g, _ := diamond(t)
	// longest path a(1) -> c(3) -> d(4) = 8
	if got := g.CriticalPathWork(); got != 8 {
		t.Fatalf("CriticalPathWork = %g, want 8", got)
	}
	if got := g.TotalWork(); got != 10 {
		t.Fatalf("TotalWork = %g, want 10", got)
	}
}

func TestEdgeBytesFallback(t *testing.T) {
	g := New("g")
	a := g.AddTask(&Task{Name: "a", Work: 1, OutBytes: 42})
	b := g.AddBasic("b", 1)
	c := g.AddBasic("c", 1)
	g.MustEdge(a, b, 0)   // falls back to OutBytes
	g.MustEdge(a, c, 100) // explicit
	if got := g.EdgeBytes(a, b); got != 42 {
		t.Fatalf("EdgeBytes fallback = %d, want 42", got)
	}
	if got := g.EdgeBytes(a, c); got != 100 {
		t.Fatalf("EdgeBytes explicit = %d, want 100", got)
	}
	if got := g.EdgeBytes(b, c); got != 0 {
		t.Fatalf("EdgeBytes missing edge = %d, want 0", got)
	}
}

func TestClone(t *testing.T) {
	g, ids := diamond(t)
	g.Task(ids[0]).Meta = map[string]int{"i": 1}
	c := g.Clone()
	if c.Len() != g.Len() || len(c.Edges()) != len(g.Edges()) {
		t.Fatal("clone shape differs")
	}
	c.Task(ids[0]).Meta["i"] = 2
	if g.Task(ids[0]).Meta["i"] != 1 {
		t.Fatal("clone shares Meta map")
	}
	c.AddBasic("extra", 1)
	if g.Len() == c.Len() {
		t.Fatal("clone shares task slice")
	}
}

// chainGraph builds a->b->c->d plus a side branch a->e->d, so b->c is the
// only interior chain link and {b,c} merge while a, d, e stay.
func chainGraph() *Graph {
	g := New("chains")
	a := g.AddBasic("a", 1)
	b := g.AddBasic("b", 2)
	c := g.AddBasic("c", 3)
	d := g.AddBasic("d", 4)
	e := g.AddBasic("e", 5)
	g.MustEdge(a, b, 1)
	g.MustEdge(b, c, 1)
	g.MustEdge(c, d, 1)
	g.MustEdge(a, e, 1)
	g.MustEdge(e, d, 1)
	return g
}

func TestContractChains(t *testing.T) {
	g := chainGraph()
	res := ContractChains(g)
	cg := res.Graph
	// a has two successors so a is not merged; b->c is a chain (b has
	// one succ c, c has one pred b). c->d: d has two preds, so not
	// merged. Expect nodes: a, chain{b,c}, d, e = 4 nodes.
	if cg.Len() != 4 {
		t.Fatalf("contracted to %d nodes, want 4", cg.Len())
	}
	if err := cg.Validate(); err != nil {
		t.Fatalf("contracted graph invalid: %v", err)
	}
	// Find the merged node.
	var merged *Task
	for _, task := range cg.Tasks() {
		if len(task.Members) == 2 {
			merged = task
		}
	}
	if merged == nil {
		t.Fatal("no merged chain node found")
	}
	if merged.Work != 5 {
		t.Fatalf("merged work = %g, want 2+3=5", merged.Work)
	}
	if merged.Members[0] != 1 || merged.Members[1] != 2 {
		t.Fatalf("merged members = %v, want [1 2]", merged.Members)
	}
	// Total work is preserved.
	if cg.TotalWork() != g.TotalWork() {
		t.Fatalf("contraction changed total work: %g vs %g", cg.TotalWork(), g.TotalWork())
	}
	// NodeOf is consistent.
	for id := 0; id < g.Len(); id++ {
		nid := res.NodeOf[id]
		if nid == None {
			t.Fatalf("task %d unmapped", id)
		}
		found := false
		for _, m := range cg.Task(nid).Members {
			if m == TaskID(id) {
				found = true
			}
		}
		if !found {
			t.Fatalf("task %d not in members of its node", id)
		}
	}
}

func TestContractLongChain(t *testing.T) {
	// A pure path of 5 tasks contracts to a single node.
	g := New("path")
	prev := g.AddBasic("t0", 1)
	for i := 1; i < 5; i++ {
		cur := g.AddBasic("t", 1)
		g.MustEdge(prev, cur, 1)
		prev = cur
	}
	res := ContractChains(g)
	if res.Graph.Len() != 1 {
		t.Fatalf("path contracted to %d nodes, want 1", res.Graph.Len())
	}
	if got := res.Graph.Task(0).Work; got != 5 {
		t.Fatalf("merged work = %g, want 5", got)
	}
	if len(res.Graph.Task(0).Members) != 5 {
		t.Fatalf("members = %v", res.Graph.Task(0).Members)
	}
}

func TestContractSkipsMarkers(t *testing.T) {
	// start -> a -> stop must not merge through the markers.
	g := New("m")
	a := g.AddBasic("a", 1)
	_ = a
	g.AddStartStop()
	res := ContractChains(g)
	if res.Graph.Len() != 3 {
		t.Fatalf("contracted to %d nodes, want 3 (start, a, stop)", res.Graph.Len())
	}
}

func TestContractIndependentTasks(t *testing.T) {
	// Independent tasks never merge.
	g := New("ind")
	g.AddBasic("a", 1)
	g.AddBasic("b", 1)
	res := ContractChains(g)
	if res.Graph.Len() != 2 {
		t.Fatalf("contracted to %d nodes, want 2", res.Graph.Len())
	}
}

func TestLayers(t *testing.T) {
	g, ids := diamond(t)
	g.AddStartStop()
	layers := Layers(g)
	if len(layers) != 3 {
		t.Fatalf("got %d layers, want 3: %v", len(layers), layers)
	}
	if len(layers[0]) != 1 || layers[0][0] != ids[0] {
		t.Fatalf("layer 0 = %v, want [a]", layers[0])
	}
	if len(layers[1]) != 2 {
		t.Fatalf("layer 1 = %v, want [b c]", layers[1])
	}
	if len(layers[2]) != 1 || layers[2][0] != ids[3] {
		t.Fatalf("layer 2 = %v, want [d]", layers[2])
	}
}

func TestLayersIndependenceInvariant(t *testing.T) {
	// Property: within any layer all tasks are pairwise independent, and
	// every task appears in exactly one layer, for random DAGs.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		g := New("rand")
		n := 3 + rng.Intn(20)
		for i := 0; i < n; i++ {
			g.AddBasic("t", float64(1+rng.Intn(5)))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.2 {
					g.MustEdge(TaskID(i), TaskID(j), 1)
				}
			}
		}
		layers := Layers(g)
		seen := make(map[TaskID]int)
		for li, layer := range layers {
			for _, id := range layer {
				if prev, ok := seen[id]; ok {
					t.Fatalf("task %d in layers %d and %d", id, prev, li)
				}
				seen[id] = li
			}
			for i := 0; i < len(layer); i++ {
				for j := i + 1; j < len(layer); j++ {
					if !g.Independent(layer[i], layer[j]) {
						t.Fatalf("layer %d contains dependent tasks %d, %d", li, layer[i], layer[j])
					}
				}
			}
		}
		if len(seen) != n {
			t.Fatalf("layers cover %d of %d tasks", len(seen), n)
		}
		// Dependencies respect layer order.
		for _, e := range g.Edges() {
			if seen[e.From] >= seen[e.To] {
				t.Fatalf("edge %d->%d violates layer order", e.From, e.To)
			}
		}
	}
}

func TestContractThenLayersEPOLShape(t *testing.T) {
	// Mimic one EPOL time step with R=4 (Fig. 5): R chains of micro
	// steps (lengths 1..R) followed by a combine task. After chain
	// contraction the step graph must have R+1 nodes in 2 layers.
	const R = 4
	g := New("epol-step")
	combine := g.AddBasic("combine", 1)
	for i := 1; i <= R; i++ {
		var prev TaskID = None
		for j := 1; j <= i; j++ {
			s := g.AddBasic("step", 1)
			if prev != None {
				g.MustEdge(prev, s, 8)
			}
			prev = s
		}
		g.MustEdge(prev, combine, 8)
	}
	g.AddStartStop()
	res := ContractChains(g)
	// R approximation chains + combine + start + stop
	if got := res.Graph.Len(); got != R+3 {
		t.Fatalf("contracted nodes = %d, want %d", got, R+3)
	}
	layers := Layers(res.Graph)
	if len(layers) != 2 {
		t.Fatalf("layers = %d, want 2", len(layers))
	}
	if len(layers[0]) != R {
		t.Fatalf("first layer has %d tasks, want %d", len(layers[0]), R)
	}
	if len(layers[1]) != 1 {
		t.Fatalf("second layer has %d tasks, want 1", len(layers[1]))
	}
	// Chain i carries i units of work.
	works := map[float64]bool{}
	for _, id := range layers[0] {
		works[res.Graph.Task(id).Work] = true
	}
	for i := 1; i <= R; i++ {
		if !works[float64(i)] {
			t.Fatalf("missing chain with work %d; layer works: %v", i, works)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := New("dotted")
	a := g.AddBasic("alpha", 10)
	b := g.AddBasic("beta", 20)
	g.MustEdge(a, b, 128)
	sub := New("body")
	sub.AddBasic("inner", 5)
	g.AddTask(&Task{Name: "loop", Kind: KindComposed, Work: 5, Sub: sub})
	g.AddStartStop()
	var buf strings.Builder
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "alpha", "beta", "128B", "doubleoctagon", "cluster_", "inner", "shape=circle"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}
