package graph

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// buildCodecGraph builds a graph exercising every wire field: kinds,
// cost fields, meta, members and a composed subgraph.
func buildCodecGraph() *Graph {
	sub := New("inner")
	a := sub.AddBasic("sa", 5)
	b := sub.AddBasic("sb", 7)
	sub.MustEdge(a, b, 16)

	g := New("outer")
	src := g.AddTask(&Task{Name: "src", Kind: KindStart})
	work := g.AddTask(&Task{
		Name: "work", Kind: KindBasic, Work: 3.5,
		CommBytes: 1 << 20, CommCount: 4, BcastBytes: 512, BcastCount: 2,
		OutBytes: 4096, MaxWidth: 8,
		Meta: map[string]int{"i": 1, "j": 2},
	})
	loop := g.AddTask(&Task{Name: "loop", Kind: KindComposed, Work: 1, Sub: sub})
	sink := g.AddTask(&Task{Name: "sink", Kind: KindStop})
	g.MustEdge(src, work, 0)
	g.MustEdge(work, loop, 2048)
	g.MustEdge(loop, sink, 0)
	return g
}

func TestGraphJSONRoundTrip(t *testing.T) {
	g := buildCodecGraph()
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != g.Name || back.Len() != g.Len() {
		t.Fatalf("shape lost: %q/%d vs %q/%d", back.Name, back.Len(), g.Name, g.Len())
	}
	for id, want := range g.Tasks() {
		got := back.Task(TaskID(id))
		if got.Name != want.Name || got.Kind != want.Kind || got.Work != want.Work ||
			got.CommBytes != want.CommBytes || got.CommCount != want.CommCount ||
			got.BcastBytes != want.BcastBytes || got.BcastCount != want.BcastCount ||
			got.OutBytes != want.OutBytes || got.MaxWidth != want.MaxWidth {
			t.Fatalf("task %d fields lost: %+v vs %+v", id, got, want)
		}
		if want.Meta != nil && got.Meta["j"] != want.Meta["j"] {
			t.Fatalf("task %d meta lost", id)
		}
		if (want.Sub == nil) != (got.Sub == nil) {
			t.Fatalf("task %d subgraph lost", id)
		}
		if want.Sub != nil && got.Sub.Len() != want.Sub.Len() {
			t.Fatalf("task %d subgraph shape lost", id)
		}
	}
	if wantEdges, gotEdges := g.Edges(), back.Edges(); !slices.Equal(gotEdges, wantEdges) {
		t.Fatalf("edges %+v, want %+v", gotEdges, wantEdges)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGraphJSONRejectsBadEdges(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"out of range", `{"name":"g","tasks":[{"name":"a"}],"edges":[{"from":0,"to":7}]}`, "unknown task"},
		{"self edge", `{"name":"g","tasks":[{"name":"a"}],"edges":[{"from":0,"to":0}]}`, "self edge"},
		{"bad kind", `{"name":"g","tasks":[{"name":"a","kind":"spaghetti"}]}`, "unknown task kind"},
		{"not json", `{"name":`, "unexpected end"},
	} {
		var g Graph
		err := json.Unmarshal([]byte(tc.src), &g)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestGraphJSONOmitsZeroFields(t *testing.T) {
	g := New("tiny")
	g.AddBasic("t", 2)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, noise := range []string{"comm_bytes", "bcast", "max_width", "sub", "meta", "members", "kind"} {
		if strings.Contains(string(data), noise) {
			t.Fatalf("zero field %q not omitted: %s", noise, data)
		}
	}
}
