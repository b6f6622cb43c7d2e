package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mtask/internal/graph"
	"mtask/internal/ode"
	"mtask/internal/plan"
)

// TestAdjacencyMatchesModelUnderMutation interleaves AddTask, AddEdge
// (valid, invalid and duplicate edges), full reads and AddStartStop on
// graphs that were already read, and holds the graph to the model after
// every read: a mutation after a read must never leave stale rows.
func TestAdjacencyMatchesModelUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 300; round++ {
		g, m := graph.New("mut"), newModel()
		for op := 0; op < 60; op++ {
			switch r := rng.Intn(10); {
			case r < 2 || m.n < 2:
				if id := g.AddTask(&graph.Task{OutBytes: rng.Intn(3)}); int(id) != m.n {
					t.Fatalf("round %d: AddTask returned %d, want %d", round, id, m.n)
				}
				m.n++
			case r < 7:
				from, to := graph.TaskID(rng.Intn(m.n+2)-1), graph.TaskID(rng.Intn(m.n+2)-1)
				bytes := rng.Intn(4) - 1
				if err := g.AddEdge(from, to, bytes); (err == nil) != m.addEdge(from, to, bytes) {
					t.Fatalf("round %d: AddEdge(%d, %d) = %v, model disagrees", round, from, to, err)
				}
			case r < 9:
				if err := m.check(g); err != nil {
					t.Fatalf("round %d op %d: %v", round, op, err)
				}
			default:
				var sources, sinks []graph.TaskID
				for id := 0; id < m.n; id++ {
					if len(m.pred[graph.TaskID(id)]) == 0 {
						sources = append(sources, graph.TaskID(id))
					}
					if len(m.succ[graph.TaskID(id)]) == 0 {
						sinks = append(sinks, graph.TaskID(id))
					}
				}
				start, stop := g.AddStartStop()
				if int(start) != m.n || int(stop) != m.n+1 {
					t.Fatalf("round %d: AddStartStop returned %d, %d, want %d, %d", round, start, stop, m.n, m.n+1)
				}
				m.n += 2
				for _, s := range sources {
					m.addEdge(start, s, 0)
				}
				for _, s := range sinks {
					m.addEdge(s, stop, 0)
				}
			}
		}
		if err := m.check(g); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestConcurrentFirstRead makes the first read of one unbuilt graph from
// many goroutines at once, through every kind of reader; under -race it
// checks that the lazy build is published safely, and every reader must
// see the adjacency a single-threaded read sees.
func TestConcurrentFirstRead(t *testing.T) {
	build := func() *graph.Graph { return ode.BuildUnrolledGraph(8, 3, 20, 1000, 600) }
	ref := build()
	wantFP, wantEdges := plan.GraphFingerprint(ref), ref.Edges()
	wantLayers := len(graph.Layers(graph.ContractChains(ref).Graph))
	for rep := 0; rep < 8; rep++ {
		g := build()
		start := make(chan struct{})
		errs := make(chan error, 16)
		var wg sync.WaitGroup
		for i := 0; i < cap(errs); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				switch i % 4 {
				case 0:
					if fp := plan.GraphFingerprint(g); fp != wantFP {
						errs <- fmt.Errorf("fingerprint %016x, want %016x", fp, wantFP)
					}
				case 1:
					if es := g.Edges(); !slices.Equal(es, wantEdges) {
						errs <- fmt.Errorf("Edges() differs")
					}
				case 2:
					if err := g.Validate(); err != nil {
						errs <- err
					}
				case 3:
					if n := len(graph.Layers(graph.ContractChains(g).Graph)); n != wantLayers {
						errs <- fmt.Errorf("%d layers, want %d", n, wantLayers)
					}
				}
			}(i)
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}
