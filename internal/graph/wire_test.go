package graph_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mtask/internal/graph"
	"mtask/internal/ode"
	"mtask/internal/plan"
)

// referenceBuild is the decoder's former build path, kept as the oracle
// Wire.Build is held to: one AddTask per task, one AddEdge (with its
// (from, to) map) per edge.
func referenceBuild(w *graph.Wire) (*graph.Graph, error) {
	g := graph.New(w.Name)
	for i, tw := range w.Tasks {
		t := &graph.Task{
			Name: tw.Name, Work: tw.Work,
			CommBytes: tw.CommBytes, CommCount: tw.CommCount,
			BcastBytes: tw.BcastBytes, BcastCount: tw.BcastCount,
			OutBytes: tw.OutBytes, MaxWidth: tw.MaxWidth,
			Members: tw.Members, Meta: tw.Meta,
		}
		switch tw.Kind {
		case "", "basic":
		case "start":
			t.Kind = graph.KindStart
		case "stop":
			t.Kind = graph.KindStop
		case "composed":
			t.Kind = graph.KindComposed
		default:
			return nil, fmt.Errorf("task %d: unknown kind %q", i, tw.Kind)
		}
		if tw.Sub != nil {
			var err error
			if t.Sub, err = referenceBuild(tw.Sub); err != nil {
				return nil, err
			}
		}
		g.AddTask(t)
	}
	for _, e := range w.Edges {
		if err := g.AddEdge(e.From, e.To, e.Bytes); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// sameGraph reports the first difference between two graphs: tasks,
// succ/pred order, Edges() order and payloads, point lookups, composed
// bodies and the planner's fingerprint.
func sameGraph(got, want *graph.Graph) error {
	if got.Name != want.Name || got.Len() != want.Len() || got.NumEdges() != want.NumEdges() {
		return fmt.Errorf("shape %q/%d/%d, want %q/%d/%d",
			got.Name, got.Len(), got.NumEdges(), want.Name, want.Len(), want.NumEdges())
	}
	for id, wt := range want.Tasks() {
		gt := got.Task(graph.TaskID(id))
		if gt.ID != wt.ID || gt.Name != wt.Name || gt.Kind != wt.Kind ||
			gt.Work != wt.Work ||
			gt.CommBytes != wt.CommBytes || gt.CommCount != wt.CommCount ||
			gt.BcastBytes != wt.BcastBytes || gt.BcastCount != wt.BcastCount ||
			gt.OutBytes != wt.OutBytes || gt.MaxWidth != wt.MaxWidth ||
			!slices.Equal(gt.Members, wt.Members) || len(gt.Meta) != len(wt.Meta) {
			return fmt.Errorf("task %d: %+v, want %+v", id, gt, wt)
		}
		for k, v := range wt.Meta {
			if gv, ok := gt.Meta[k]; !ok || gv != v {
				return fmt.Errorf("task %d: meta[%q] = %d, want %d", id, k, gv, v)
			}
		}
		if !slices.Equal(got.Succ(gt.ID), want.Succ(wt.ID)) || !slices.Equal(got.Pred(gt.ID), want.Pred(wt.ID)) {
			return fmt.Errorf("task %d: succ %v pred %v, want succ %v pred %v",
				id, got.Succ(gt.ID), got.Pred(gt.ID), want.Succ(wt.ID), want.Pred(wt.ID))
		}
		if (gt.Sub == nil) != (wt.Sub == nil) {
			return fmt.Errorf("task %d: body present %v, want %v", id, gt.Sub != nil, wt.Sub != nil)
		}
		if gt.Sub != nil {
			if err := sameGraph(gt.Sub, wt.Sub); err != nil {
				return fmt.Errorf("task %d body: %w", id, err)
			}
		}
	}
	ge, we := got.Edges(), want.Edges()
	for i := range we {
		if *ge[i] != *we[i] {
			return fmt.Errorf("edge %d: %+v, want %+v", i, *ge[i], *we[i])
		}
		if e := got.Edge(we[i].From, we[i].To); e == nil || *e != *we[i] {
			return fmt.Errorf("lookup %d->%d: %+v, want %+v", we[i].From, we[i].To, e, *we[i])
		}
	}
	if gf, wf := plan.GraphFingerprint(got), plan.GraphFingerprint(want); gf != wf {
		return fmt.Errorf("fingerprint %016x, want %016x", gf, wf)
	}
	return nil
}

// checkDecode is the differential oracle of the graph decoder over one
// input: whatever encoding/json makes of the bytes, Wire.Build and
// Graph.UnmarshalJSON accept exactly what the AddTask/AddEdge loop accepts
// and build the same graph, which validates without panicking and survives
// a round trip.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	var w graph.Wire
	var viaUnmarshal graph.Graph
	uerr := json.Unmarshal(data, &viaUnmarshal)
	if err := json.Unmarshal(data, &w); err != nil {
		if uerr == nil {
			t.Fatalf("Graph.UnmarshalJSON accepted what the wire form rejects: %v", err)
		}
		return
	}
	want, werr := referenceBuild(&w)
	got, gerr := w.Build()
	if (werr == nil) != (gerr == nil) || (werr == nil) != (uerr == nil) {
		t.Fatalf("reference err %v, Build err %v, UnmarshalJSON err %v", werr, gerr, uerr)
	}
	if werr != nil {
		return
	}
	if err := sameGraph(got, want); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := sameGraph(&viaUnmarshal, want); err != nil {
		t.Fatalf("UnmarshalJSON: %v", err)
	}
	_ = got.Validate() // cyclic graphs decode; planning rejects them

	again, err := json.Marshal(got)
	if err != nil {
		t.Fatalf("re-encoding: %v", err)
	}
	var back graph.Graph
	if err := json.Unmarshal(again, &back); err != nil {
		t.Fatalf("decoding the re-encoding: %v", err)
	}
	if gf, bf := plan.GraphFingerprint(got), plan.GraphFingerprint(&back); gf != bf {
		t.Fatalf("round trip changed the fingerprint: %016x -> %016x", gf, bf)
	}
}

// solverGraphs are the five solver configurations of the paper's
// evaluation at test scale.
func solverGraphs() []*graph.Graph {
	return []*graph.Graph{
		ode.BuildEPOLGraph(4000, 600, 8, 2),
		ode.BuildIRKGraph(4000, 600, 4, 2, 2),
		ode.BuildDIIRKGraph(4000, 600, 4, 2, 2),
		ode.BuildPABGraph(4000, 600, 8, 0, 2),
		ode.BuildPABGraph(4000, 600, 8, 2, 2),
	}
}

// decoderCases are the inputs the decoder must keep treating as it does:
// duplicate edges in every order, edges naming unknown tasks, self edges,
// unknown kinds, composed bodies (good and bad), and bytes that are not
// one JSON value.
var decoderCases = []string{
	`{"name":"g","tasks":[{"name":"a","work":1}]}`,
	`{"name":"dup","tasks":[{"name":"a"},{"name":"b"},{"name":"c"}],"edges":[` +
		`{"from":0,"to":2,"bytes":1},{"from":1,"to":2,"bytes":2},{"from":0,"to":1,"bytes":4},` +
		`{"from":0,"to":2,"bytes":8},{"from":1,"to":2},{"from":0,"to":2,"bytes":16},{"from":0,"to":1}]}`,
	`{"name":"cycle","tasks":[{"name":"a"},{"name":"b"}],"edges":[{"from":0,"to":1},{"from":1,"to":0},{"from":0,"to":1,"bytes":3}]}`,
	`{"name":"g","tasks":[{"name":"a"}],"edges":[{"from":0,"to":7}]}`,
	`{"name":"g","tasks":[{"name":"a"}],"edges":[{"from":-1,"to":0}]}`,
	`{"name":"g","tasks":[],"edges":[{"from":0,"to":1}]}`,
	`{"name":"g","tasks":[{"name":"a"},{"name":"b"}],"edges":[{"from":0,"to":1},{"from":1,"to":1}]}`,
	`{"name":"g","tasks":[{"name":"a","kind":"spaghetti"}]}`,
	`{"name":"g","tasks":[{"name":"s","kind":"start"},{"name":"b","kind":"basic"},{"name":"e","kind":"stop"}],"edges":[{"from":0,"to":1},{"from":1,"to":2}]}`,
	`{"name":"o","tasks":[{"name":"loop","kind":"composed","work":1,"members":[3,1],"meta":{"i":1},` +
		`"sub":{"name":"in","tasks":[{"name":"x"},{"name":"y"}],"edges":[{"from":0,"to":1,"bytes":16},{"from":0,"to":1,"bytes":1}]}}]}`,
	`{"name":"o","tasks":[{"name":"loop","kind":"composed","sub":{"name":"in","tasks":[{"name":"x"}],"edges":[{"from":0,"to":0}]}}]}`,
	`{"name":"o","tasks":[{"name":"loop","sub":{"name":"in","tasks":[{"name":"x","kind":"?"}]}}]}`,
	`{"name":"g","tasks":[{"name":"a","work":1}]} x`,
	`{"name":"g","tasks":[{"name":"a","work":1.5e308,"comm_bytes":-1}],"edges":null}`,
	`{"name":`,
	`null`,
	`[]`,
	``,
}

func TestWireBuildMatchesAddEdge(t *testing.T) {
	for _, src := range decoderCases {
		checkDecode(t, []byte(src))
	}
	for _, g := range solverGraphs() {
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		checkDecode(t, data)
	}

	// Random multigraphs: few tasks, many edges, so most edges repeat, in
	// an order that interleaves sources.
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		n := 2 + rng.Intn(7)
		w := graph.Wire{Name: "multi", Tasks: make([]graph.WireTask, n)}
		for e := rng.Intn(6 * n); e > 0; e-- {
			from, to := rng.Intn(n), rng.Intn(n-1)
			if to >= from {
				to++
			}
			w.Edges = append(w.Edges, graph.WireEdge{From: graph.TaskID(from), To: graph.TaskID(to), Bytes: rng.Intn(5)})
		}
		data, err := json.Marshal(&w)
		if err != nil {
			t.Fatal(err)
		}
		checkDecode(t, data)
	}
}

// TestWireBuildLinear: merging duplicates must not rescan a source's
// adjacency per edge. One source, 200k targets, every edge sent twice in
// shuffled order: a quadratic merge needs ~10^10 steps, the bucketed one
// well under a second.
func TestWireBuildLinear(t *testing.T) {
	const fan = 200_000
	w := graph.Wire{Name: "fan", Tasks: make([]graph.WireTask, fan+1)}
	for i := 1; i <= fan; i++ {
		w.Edges = append(w.Edges,
			graph.WireEdge{From: 0, To: graph.TaskID(i), Bytes: 1},
			graph.WireEdge{From: 0, To: graph.TaskID(i), Bytes: 2})
	}
	rand.New(rand.NewSource(2)).Shuffle(len(w.Edges), func(i, j int) { w.Edges[i], w.Edges[j] = w.Edges[j], w.Edges[i] })
	start := time.Now()
	g, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("building a %d-edge fan took %v", len(w.Edges), d)
	}
	if g.NumEdges() != fan || len(g.Succ(0)) != fan {
		t.Fatalf("%d edges, %d successors of the source, want %d", g.NumEdges(), len(g.Succ(0)), fan)
	}
	for _, e := range g.Edges() {
		if e.Bytes != 3 {
			t.Fatalf("edge %d->%d carries %d bytes, want 3", e.From, e.To, e.Bytes)
		}
	}
}

// FuzzGraphJSON runs the differential oracle over arbitrary bytes. The
// committed corpus (testdata/fuzz/FuzzGraphJSON) holds the five solver
// graphs; the malformed cases are seeded here.
func FuzzGraphJSON(f *testing.F) {
	for _, src := range decoderCases {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
	})
}
