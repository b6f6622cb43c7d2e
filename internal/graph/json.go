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
// turns it into a Graph. The built graph equals the one AddTask/AddEdge
// would produce from the same tasks and edges (valid endpoints, no self
// edges, duplicate edges merged); DAG-ness is checked by
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
	// Field-wise copy (not *g = *ng): Graph carries the edge-index mutex,
	// which must not be copied. The decode target is not shared while
	// unmarshalling, so keeping g's own (unlocked) mutex is fine.
	g.Name = ng.Name
	g.tasks = ng.tasks
	g.succ = ng.succ
	g.pred = ng.pred
	g.out = ng.out
	g.nedges = ng.nedges
	g.edges = ng.edges
	g.edgeSlab = ng.edgeSlab
	return nil
}

// Build turns the wire form into a Graph: tasks from one slab, exact-size
// adjacency, no (from, to) edge map. Unknown kinds, edges naming unknown
// tasks and self edges are rejected; duplicate edges merge (bytes
// accumulate) into their first occurrence. The wire form is outside input,
// so the duplicate search is O(V+E) whatever the edge order: edges are
// bucketed by source (a stable counting sort), and within one source a
// per-target slot remembers the first edge to that target.
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
	if len(w.Edges) == 0 {
		return g, nil
	}

	ne := len(w.Edges)
	scratch := make([]int, 4*n+2*ne)
	end, first := scratch[:n], scratch[n:2*n]
	outDeg, inDeg := scratch[2*n:3*n], scratch[3*n:4*n]
	bySrc, rep := scratch[4*n:4*n+ne], scratch[4*n+ne:]

	// end[u] becomes the end of source u's bucket in bySrc, which lists the
	// edge indices grouped by source in arrival order.
	for _, e := range w.Edges {
		if !g.valid(e.From) || !g.valid(e.To) {
			return nil, fmt.Errorf("graph %s: edge %d->%d references unknown task", g.Name, e.From, e.To)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("graph %s: self edge on task %d", g.Name, e.From)
		}
		end[e.From]++
	}
	sum := 0
	for u, c := range end {
		end[u] = sum
		sum += c
	}
	for i, e := range w.Edges {
		bySrc[end[e.From]] = i
		end[e.From]++
	}

	// rep[i] is the first edge with edge i's endpoints (i itself unless i
	// is a duplicate). first[v]-1 is the latest first-occurrence edge into
	// v; it belongs to the current source exactly when its From says so.
	lo := 0
	for u, hi := range end {
		for _, i := range bySrc[lo:hi] {
			to := w.Edges[i].To
			if j := first[to] - 1; j >= 0 && int(w.Edges[j].From) == u {
				rep[i] = j
				continue
			}
			rep[i], first[to] = i, i+1
			outDeg[u]++
			inDeg[to]++
		}
		lo = hi
	}

	// Arrival order again, so succ, pred and out fill exactly as a chain of
	// AddEdge calls would. slot (bySrc reused) maps a first occurrence to
	// its Edge in the slab PresizeAdjacency carved.
	g.PresizeAdjacency(outDeg, inDeg)
	slot := bySrc
	for i, e := range w.Edges {
		if rep[i] != i {
			g.edgeSlab[slot[rep[i]]].Bytes += e.Bytes
			continue
		}
		slot[i] = len(g.edgeSlab)
		g.AddUniqueEdge(e.From, e.To, e.Bytes)
	}
	return g, nil
}
