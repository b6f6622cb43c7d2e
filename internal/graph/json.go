package graph

import (
	"encoding/json"
	"fmt"
)

// JSON codec of M-task graphs — the wire format of the planning service
// (POST /v1/plan) and of tooling that ships graphs between processes.
//
// A graph serializes as its name, the task array (array index = TaskID,
// so edges reference tasks by position) and the edge list. Composed tasks
// carry their subgraph recursively. Zero-valued task fields are omitted,
// so a plain computational task is just {"name": ..., "work": ...}.
//
// Wire is that format as plain structs — no nested json.Unmarshaler — so
// a request that embeds a graph decodes in one json.Unmarshal; Wire.Build
// turns it into a Graph through AddTask and AddEdge (valid endpoints, no
// self edges, duplicate edges merged). DAG-ness is checked by
// Validate/TopoOrder at planning time, exactly as for built graphs.

// Wire is the wire form of a Graph.
type Wire struct {
	Name  string     `json:"name"`
	Tasks []WireTask `json:"tasks"`
	Edges []WireEdge `json:"edges,omitempty"`
}

// WireTask is the wire form of one Task. ID is implicit (array position).
type WireTask struct {
	Name       string         `json:"name"`
	Kind       string         `json:"kind,omitempty"` // "" = basic
	Work       float64        `json:"work,omitempty"`
	CommBytes  int            `json:"comm_bytes,omitempty"`
	CommCount  int            `json:"comm_count,omitempty"`
	BcastBytes int            `json:"bcast_bytes,omitempty"`
	BcastCount int            `json:"bcast_count,omitempty"`
	OutBytes   int            `json:"out_bytes,omitempty"`
	MaxWidth   int            `json:"max_width,omitempty"`
	Members    []TaskID       `json:"members,omitempty"`
	Sub        *Wire          `json:"sub,omitempty"`
	Meta       map[string]int `json:"meta,omitempty"`
}

// WireEdge is the wire form of one Edge.
type WireEdge struct {
	From  TaskID `json:"from"`
	To    TaskID `json:"to"`
	Bytes int    `json:"bytes,omitempty"`
}

func kindName(k Kind) (string, error) {
	switch k {
	case KindBasic:
		return "", nil // omitted on the wire
	case KindStart, KindStop, KindComposed:
		return k.String(), nil
	}
	return "", fmt.Errorf("graph: cannot encode task kind %d", int(k))
}

func kindByName(s string) (Kind, error) {
	switch s {
	case "", "basic":
		return KindBasic, nil
	case "start":
		return KindStart, nil
	case "stop":
		return KindStop, nil
	case "composed":
		return KindComposed, nil
	}
	return 0, fmt.Errorf("graph: unknown task kind %q", s)
}

// wire converts the graph, composed bodies included, to its wire form.
func (g *Graph) wire() (*Wire, error) {
	w := &Wire{Name: g.Name, Tasks: make([]WireTask, len(g.tasks))}
	for i, t := range g.tasks {
		kind, err := kindName(t.Kind)
		if err != nil {
			return nil, err
		}
		w.Tasks[i] = WireTask{
			Name:       t.Name,
			Kind:       kind,
			Work:       t.Work,
			CommBytes:  t.CommBytes,
			CommCount:  t.CommCount,
			BcastBytes: t.BcastBytes,
			BcastCount: t.BcastCount,
			OutBytes:   t.OutBytes,
			MaxWidth:   t.MaxWidth,
			Members:    t.Members,
			Meta:       t.Meta,
		}
		if t.Sub != nil {
			if w.Tasks[i].Sub, err = t.Sub.wire(); err != nil {
				return nil, err
			}
		}
	}
	for _, e := range g.Edges() {
		w.Edges = append(w.Edges, WireEdge{From: e.From, To: e.To, Bytes: e.Bytes})
	}
	return w, nil
}

// MarshalJSON encodes the graph in the wire format above. Graph implements
// json.Marshaler, so graphs embed directly into request/response structs.
func (g *Graph) MarshalJSON() ([]byte, error) {
	w, err := g.wire()
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a graph from the wire format, replacing the
// receiver's contents. Edges referencing out-of-range tasks and self
// edges are rejected.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var w Wire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("graph: decoding: %w", err)
	}
	ng, err := w.Build()
	if err != nil {
		return err
	}
	// Field-wise (not *g = *ng): Graph holds a mutex, which must not be
	// copied. The decode target is not shared while unmarshalling.
	g.Name, g.tasks, g.edges = ng.Name, ng.tasks, ng.edges
	g.changed()
	return nil
}

// Build turns the wire form into a Graph: tasks from one slab, then one
// AddEdge per wire edge. Unknown kinds, edges naming unknown tasks and
// self edges are rejected; duplicate edges merge (bytes accumulate) into
// their first occurrence.
func (w *Wire) Build() (*Graph, error) {
	n := len(w.Tasks)
	g := New(w.Name)
	g.Grow(n, len(w.Edges))
	slab := make([]Task, n)
	for i := range w.Tasks {
		tw := &w.Tasks[i]
		kind, err := kindByName(tw.Kind)
		if err != nil {
			return nil, fmt.Errorf("graph %s: task %d: %w", w.Name, i, err)
		}
		t := &slab[i]
		*t = Task{
			Name:       tw.Name,
			Kind:       kind,
			Work:       tw.Work,
			CommBytes:  tw.CommBytes,
			CommCount:  tw.CommCount,
			BcastBytes: tw.BcastBytes,
			BcastCount: tw.BcastCount,
			OutBytes:   tw.OutBytes,
			MaxWidth:   tw.MaxWidth,
			Members:    tw.Members,
			Meta:       tw.Meta,
		}
		if tw.Sub != nil {
			if t.Sub, err = tw.Sub.Build(); err != nil {
				return nil, fmt.Errorf("graph %s: task %d: %w", w.Name, i, err)
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
