package graph_test

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mtask/internal/graph"
	"mtask/internal/ode"
	"mtask/internal/plan"
)

// model is the adjacency oracle, kept independent of the graph package's
// build: maps keyed by task and by (from, to) pair, grown one edge at a
// time. An edge's first occurrence appends its target to the source's row
// and its source to the target's row; a duplicate only adds its bytes.
type model struct {
	n          int
	succ, pred map[graph.TaskID][]graph.TaskID
	bytes      map[[2]graph.TaskID]int
}

func newModel() *model {
	return &model{
		succ:  map[graph.TaskID][]graph.TaskID{},
		pred:  map[graph.TaskID][]graph.TaskID{},
		bytes: map[[2]graph.TaskID]int{},
	}
}

// addEdge applies AddEdge's rule and reports whether it accepts the edge.
func (m *model) addEdge(from, to graph.TaskID, bytes int) bool {
	if from < 0 || to < 0 || int(from) >= m.n || int(to) >= m.n || from == to {
		return false
	}
	key := [2]graph.TaskID{from, to}
	if _, ok := m.bytes[key]; !ok {
		m.succ[from] = append(m.succ[from], to)
		m.pred[to] = append(m.pred[to], from)
	}
	m.bytes[key] += bytes
	return true
}

// check reports the first difference between g's adjacency and the model:
// task and edge counts, every Succ and Pred row in order, the bytes of
// OutEdges and InEdges, Edges() in (from, to) order and EdgeBytes.
func (m *model) check(g *graph.Graph) error {
	if g.Len() != m.n || g.NumEdges() != len(m.bytes) {
		return fmt.Errorf("%d tasks, %d edges, want %d, %d", g.Len(), g.NumEdges(), m.n, len(m.bytes))
	}
	for id := 0; id < m.n; id++ {
		u := graph.TaskID(id)
		to, outB := g.OutEdges(u)
		if !slices.Equal(g.Succ(u), m.succ[u]) || !slices.Equal(to, m.succ[u]) {
			return fmt.Errorf("task %d: succ %v, out-row %v, want %v", id, g.Succ(u), to, m.succ[u])
		}
		from, inB := g.InEdges(u)
		if !slices.Equal(g.Pred(u), m.pred[u]) || !slices.Equal(from, m.pred[u]) {
			return fmt.Errorf("task %d: pred %v, in-row %v, want %v", id, g.Pred(u), from, m.pred[u])
		}
		for k, v := range to {
			if want := m.bytes[[2]graph.TaskID{u, v}]; outB[k] != want {
				return fmt.Errorf("out-edge %d->%d: %d bytes, want %d", u, v, outB[k], want)
			}
		}
		for k, p := range from {
			if want := m.bytes[[2]graph.TaskID{p, u}]; inB[k] != want {
				return fmt.Errorf("in-edge %d->%d: %d bytes, want %d", p, u, inB[k], want)
			}
		}
	}
	want := make([]graph.Edge, 0, len(m.bytes))
	for key, b := range m.bytes {
		want = append(want, graph.Edge{From: key[0], To: key[1], Bytes: b})
		payload := b
		if payload <= 0 {
			payload = g.Task(key[0]).OutBytes
		}
		if got := g.EdgeBytes(key[0], key[1]); got != payload {
			return fmt.Errorf("EdgeBytes(%d, %d) = %d, want %d", key[0], key[1], got, payload)
		}
	}
	slices.SortFunc(want, func(a, b graph.Edge) int {
		if a.From != b.From {
			return int(a.From - b.From)
		}
		return int(a.To - b.To)
	})
	if got := g.Edges(); !slices.Equal(got, want) {
		return fmt.Errorf("Edges() %v, want %v", got, want)
	}
	return nil
}

var wireKinds = map[string]graph.Kind{
	"": graph.KindBasic, "basic": graph.KindBasic,
	"start": graph.KindStart, "stop": graph.KindStop, "composed": graph.KindComposed,
}

// wireModel is the model of a wire graph's edges, or an error if the
// wire form names an unknown kind (composed bodies included) or an edge
// AddEdge rejects.
func wireModel(w *graph.Wire) (*model, error) {
	m := newModel()
	for i, tw := range w.Tasks {
		if _, ok := wireKinds[tw.Kind]; !ok {
			return nil, fmt.Errorf("task %d: unknown kind %q", i, tw.Kind)
		}
		if tw.Sub != nil {
			if _, err := wireModel(tw.Sub); err != nil {
				return nil, err
			}
		}
		m.n++
	}
	for _, e := range w.Edges {
		if !m.addEdge(e.From, e.To, e.Bytes) {
			return nil, fmt.Errorf("edge %d->%d rejected", e.From, e.To)
		}
	}
	return m, nil
}

// matchesWire reports the first difference between a decoded graph and
// its wire form: name, every task field, the adjacency by the model, and
// composed bodies recursively.
func matchesWire(g *graph.Graph, w *graph.Wire) error {
	if g.Name != w.Name {
		return fmt.Errorf("name %q, want %q", g.Name, w.Name)
	}
	m, err := wireModel(w)
	if err != nil {
		return err
	}
	if err := m.check(g); err != nil {
		return err
	}
	for i, tw := range w.Tasks {
		gt := g.Task(graph.TaskID(i))
		if gt.ID != graph.TaskID(i) || gt.Name != tw.Name || gt.Kind != wireKinds[tw.Kind] ||
			gt.Work != tw.Work ||
			gt.CommBytes != tw.CommBytes || gt.CommCount != tw.CommCount ||
			gt.BcastBytes != tw.BcastBytes || gt.BcastCount != tw.BcastCount ||
			gt.OutBytes != tw.OutBytes || gt.MaxWidth != tw.MaxWidth ||
			!slices.Equal(gt.Members, tw.Members) || !maps.Equal(gt.Meta, tw.Meta) {
			return fmt.Errorf("task %d: %+v, want %+v", i, gt, tw)
		}
		if (gt.Sub == nil) != (tw.Sub == nil) {
			return fmt.Errorf("task %d: body present %v, want %v", i, gt.Sub != nil, tw.Sub != nil)
		}
		if gt.Sub != nil {
			if err := matchesWire(gt.Sub, tw.Sub); err != nil {
				return fmt.Errorf("task %d body: %w", i, err)
			}
		}
	}
	return nil
}

// checkDecode is the differential oracle of the graph decoder over one
// input: whatever encoding/json makes of the bytes, Wire.Build and
// Graph.UnmarshalJSON accept exactly what the model accepts and build the
// graph the model describes, which validates without panicking and
// survives a round trip with its fingerprint.
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
	_, merr := wireModel(&w)
	got, gerr := w.Build()
	if (merr == nil) != (gerr == nil) || (merr == nil) != (uerr == nil) {
		t.Fatalf("model err %v, Build err %v, UnmarshalJSON err %v", merr, gerr, uerr)
	}
	if merr != nil {
		return
	}
	if err := matchesWire(got, &w); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := matchesWire(&viaUnmarshal, &w); err != nil {
		t.Fatalf("UnmarshalJSON: %v", err)
	}
	if gf, uf := plan.GraphFingerprint(got), plan.GraphFingerprint(&viaUnmarshal); gf != uf {
		t.Fatalf("Build and UnmarshalJSON fingerprint %016x and %016x", gf, uf)
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
