// Package graph implements M-task graphs: directed acyclic graphs whose
// nodes are multiprocessor tasks (M-tasks) and whose edges are input-output
// relations between tasks (Section 2.1 of the paper). The package provides
// validation, topological ordering, independence tests, the linear-chain
// contraction of the layer-based scheduling algorithm (Section 3.2, step 1)
// and the greedy partitioning into layers of independent tasks (step 2).
package graph

import (
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// ErrCyclicGraph is the sentinel wrapped by TopoOrder and Validate when the
// graph contains a dependency cycle; test with errors.Is.
var ErrCyclicGraph = errors.New("graph: cycle detected")

// TaskID identifies a task within one Graph.
type TaskID int

// None is the invalid task id.
const None TaskID = -1

// Kind distinguishes plain computational tasks from the structural start
// and stop markers that the CM-task compiler inserts, and from composed
// tasks that contain a whole subgraph (e.g. a while loop whose body is a
// lower-level M-task graph).
type Kind int

const (
	// KindBasic is an ordinary M-task carrying computation.
	KindBasic Kind = iota
	// KindStart is the unique entry marker (no computation).
	KindStart
	// KindStop is the unique exit marker (no computation).
	KindStop
	// KindComposed is a node representing an entire subgraph, e.g. a
	// loop whose body is scheduled hierarchically.
	KindComposed
)

func (k Kind) String() string {
	switch k {
	case KindBasic:
		return "basic"
	case KindStart:
		return "start"
	case KindStop:
		return "stop"
	case KindComposed:
		return "composed"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Task is one node of an M-task graph.
type Task struct {
	ID   TaskID
	Name string
	Kind Kind

	// Work is the sequential computation time Tcomp(M) of the task in
	// abstract work units (converted to seconds by the cost model).
	Work float64

	// CommBytes is the payload size in bytes of the task-internal
	// collective communication (e.g. the multi-broadcast of a micro
	// step); CommCount is how many such collectives one activation
	// executes. Zero means a communication-free task.
	CommBytes int
	CommCount int

	// BcastBytes/BcastCount describe task-internal broadcast operations
	// (e.g. the pivot-row broadcasts of the DIIRK method's distributed
	// linear solver).
	BcastBytes int
	BcastCount int

	// OutBytes is the size of the task's output data, used for
	// re-distribution costs on outgoing edges when no explicit edge
	// size is given.
	OutBytes int

	// MaxWidth bounds the number of cores the task can use (0 = no
	// bound). Used e.g. for tasks with limited inner parallelism.
	MaxWidth int

	// Members lists the original task ids merged into this node by
	// linear-chain contraction (nil for original tasks).
	Members []TaskID

	// Sub is the lower-level graph of a composed node, if any.
	Sub *Graph

	// Meta carries application-specific data (e.g. the (i,j) micro-step
	// indices of the extrapolation method, or a zone index).
	Meta map[string]int
}

// Edge is a directed input-output relation between two tasks. Bytes is the
// amount of data re-distributed along the edge if producer and consumer run
// on different core groups (0 means: use the producer's OutBytes).
type Edge struct {
	From, To TaskID
	Bytes    int
}

// Graph is an M-task graph. The zero value is an empty graph ready to use.
//
// Building a graph appends: AddTask appends a task, AddEdge appends an
// edge to one list in arrival order. The adjacency every reader sees
// (Succ, Pred, OutEdges, InEdges, Edges, NumEdges and the passes of this
// package) is built from that list in one O(V+E) pass on the first read
// after a mutation, merging duplicate edges into their first occurrence.
// A graph is built by one goroutine and may then be read from many: the
// first read builds under a mutex, later reads cost one atomic load. A
// mutation after a read makes the next read rebuild, so builders add their
// tasks and edges first and read afterwards instead of interleaving reads
// and writes per edge.
type Graph struct {
	Name  string
	tasks []*Task
	// edges lists every AddEdge in arrival order, duplicates included.
	edges []Edge

	// adj is the adjacency built from tasks and edges, nil while a
	// mutation has made it stale; buildMu serializes concurrent first
	// reads.
	adj     atomic.Pointer[adjacency]
	buildMu sync.Mutex
}

// adjacency is a graph's rows in compressed form: the out-row of task u is
// succ[succOff[u]:succOff[u+1]] with the merged payload of each edge at
// the same position of outBytes, and the in-row of v is
// pred[predOff[v]:predOff[v+1]] with inBytes aligned likewise.
type adjacency struct {
	succOff, predOff  []int
	succ, pred        []TaskID
	outBytes, inBytes []int
}

// row returns window u of a row set as capped slices.
func row(off []int, ids []TaskID, bytes []int, u TaskID) ([]TaskID, []int) {
	lo, hi := off[u], off[u+1]
	return ids[lo:hi:hi], bytes[lo:hi:hi]
}

func (a *adjacency) out(u TaskID) ([]TaskID, []int) { return row(a.succOff, a.succ, a.outBytes, u) }
func (a *adjacency) in(v TaskID) ([]TaskID, []int)  { return row(a.predOff, a.pred, a.inBytes, v) }

// New returns an empty named graph.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// Grow preallocates capacity for n additional tasks and e additional
// edges, so bulk builders (generated benchmark graphs, chain contraction,
// JSON decoding) append without intermediate reallocations.
func (g *Graph) Grow(n, e int) {
	g.tasks = slices.Grow(g.tasks, max(n, 0))
	g.edges = slices.Grow(g.edges, max(e, 0))
}

// changed marks the adjacency stale after a mutation.
func (g *Graph) changed() {
	if g.adj.Load() != nil {
		g.adj.Store(nil)
	}
}

// AddTask adds a task and returns its id. The task's ID field is set by the
// graph; any preset value is ignored.
func (g *Graph) AddTask(t *Task) TaskID {
	id := TaskID(len(g.tasks))
	t.ID = id
	g.tasks = append(g.tasks, t)
	g.changed()
	return id
}

// AddBasic is a convenience for adding a basic computational task.
func (g *Graph) AddBasic(name string, work float64) TaskID {
	return g.AddTask(&Task{Name: name, Kind: KindBasic, Work: work})
}

// AddEdge adds the input-output relation from -> to carrying the given
// number of bytes. Duplicate edges are merged (bytes accumulate into the
// first occurrence). Self edges are rejected. Adding an edge is an O(1)
// append; the merge happens when the adjacency is built.
func (g *Graph) AddEdge(from, to TaskID, bytes int) error {
	if !g.valid(from) || !g.valid(to) {
		return fmt.Errorf("graph %s: edge %d->%d references unknown task", g.Name, from, to)
	}
	if from == to {
		return fmt.Errorf("graph %s: self edge on task %d", g.Name, from)
	}
	g.edges = append(g.edges, Edge{From: from, To: to, Bytes: bytes})
	g.changed()
	return nil
}

// MustEdge is AddEdge that panics on error, for graph construction code
// whose task ids are known-correct by construction.
func (g *Graph) MustEdge(from, to TaskID, bytes int) {
	if err := g.AddEdge(from, to, bytes); err != nil {
		panic(err)
	}
}

// rows returns the adjacency, building it on the first read after a
// mutation.
func (g *Graph) rows() *adjacency {
	if a := g.adj.Load(); a != nil {
		return a
	}
	g.buildMu.Lock()
	defer g.buildMu.Unlock()
	a := g.adj.Load()
	if a == nil {
		a = buildAdjacency(len(g.tasks), g.edges)
		g.adj.Store(a)
	}
	return a
}

// buildAdjacency builds the rows of n tasks from an edge list in arrival
// order, in O(n+E) with no map and no sort. A stable counting sort groups
// the edges by source; within one source a per-target marker finds the
// first occurrence of each (from, to) pair, and later duplicates add their
// bytes to it. Out-rows list targets in first-occurrence order and in-rows
// list sources in the arrival order of their first occurrences.
func buildAdjacency(n int, edges []Edge) *adjacency {
	m := len(edges)
	scratch := make([]int, 2*n+2*m)
	end, first := scratch[:n:n], scratch[n:2*n:2*n]
	bySrc, slot := scratch[2*n:2*n+m:2*n+m], scratch[2*n+m:]

	// end[u] becomes the end of source u's group in bySrc, which lists
	// the edge indices grouped by source in arrival order.
	for _, e := range edges {
		end[e.From]++
	}
	sum := 0
	for u, c := range end {
		end[u] = sum
		sum += c
	}
	for i, e := range edges {
		bySrc[end[e.From]] = i
		end[e.From]++
	}

	// slot[i] is edge i's position in the out-rows, complemented when
	// edge i repeats an earlier one. first[v]-1 is the latest first
	// occurrence into v; it belongs to the current source exactly when
	// its From says so.
	offs := make([]int, 2*(n+1))
	a := &adjacency{succOff: offs[: n+1 : n+1], predOff: offs[n+1:]}
	ne, lo := 0, 0
	for u, hi := range end {
		a.succOff[u] = ne
		for _, i := range bySrc[lo:hi] {
			to := edges[i].To
			if j := first[to] - 1; j >= 0 && int(edges[j].From) == u {
				slot[i] = ^slot[j]
				continue
			}
			slot[i], first[to] = ne, i+1
			ne++
		}
		lo = hi
	}
	a.succOff[n] = ne

	ids, bytes := make([]TaskID, 2*ne), make([]int, 2*ne)
	a.succ, a.pred = ids[:ne:ne], ids[ne:]
	a.outBytes, a.inBytes = bytes[:ne:ne], bytes[ne:]
	for i, e := range edges {
		s := slot[i]
		if s < 0 {
			a.outBytes[^s] += e.Bytes
			continue
		}
		a.succ[s] = e.To
		a.outBytes[s] += e.Bytes
		a.predOff[e.To+1]++
	}
	for v := 0; v < n; v++ {
		a.predOff[v+1] += a.predOff[v]
	}
	// Arrival order again, so each in-row lists its first occurrences as
	// they came; end is reused as the fill cursor.
	copy(end, a.predOff[:n])
	for i, e := range edges {
		if s := slot[i]; s >= 0 {
			k := end[e.To]
			end[e.To]++
			a.pred[k], a.inBytes[k] = e.From, a.outBytes[s]
		}
	}
	return a
}

func (g *Graph) valid(id TaskID) bool { return id >= 0 && int(id) < len(g.tasks) }

// Task returns the task with the given id.
func (g *Graph) Task(id TaskID) *Task { return g.tasks[id] }

// Len returns the number of tasks.
func (g *Graph) Len() int { return len(g.tasks) }

// Tasks returns all tasks in id order. The slice is shared; do not modify.
func (g *Graph) Tasks() []*Task { return g.tasks }

// Succ returns the successor ids of a task in the order their edges were
// first added. Shared slice; do not modify.
func (g *Graph) Succ(id TaskID) []TaskID {
	to, _ := g.rows().out(id)
	return to
}

// Pred returns the predecessor ids of a task in the order their edges were
// first added. Shared slice; do not modify.
func (g *Graph) Pred(id TaskID) []TaskID {
	from, _ := g.rows().in(id)
	return from
}

// OutEdges returns the out-row of a task: its successors as Succ does and,
// at the same positions, the bytes each edge carries (duplicates merged).
// Shared slices; do not modify.
func (g *Graph) OutEdges(id TaskID) (to []TaskID, bytes []int) { return g.rows().out(id) }

// InEdges returns the in-row of a task: its predecessors as Pred does and,
// at the same positions, the bytes each edge carries. Shared slices; do
// not modify.
func (g *Graph) InEdges(id TaskID) (from []TaskID, bytes []int) { return g.rows().in(id) }

// NumEdges returns the number of edges (duplicates merged).
func (g *Graph) NumEdges() int { return len(g.rows().succ) }

// Edges returns all edges in deterministic (from, to) order: the out-rows
// concatenated in source order, each sorted by destination.
func (g *Graph) Edges() []Edge {
	a := g.rows()
	es := make([]Edge, len(a.succ))
	for u := range g.tasks {
		lo, hi := a.succOff[u], a.succOff[u+1]
		for k := lo; k < hi; k++ {
			es[k] = Edge{From: TaskID(u), To: a.succ[k], Bytes: a.outBytes[k]}
		}
		slices.SortFunc(es[lo:hi], func(x, y Edge) int { return int(x.To) - int(y.To) })
	}
	return es
}

// Payload returns the re-distribution payload of an edge out of from that
// carries the given bytes: the bytes themselves, or the producer's
// OutBytes when the edge carries no explicit size.
func (g *Graph) Payload(from TaskID, bytes int) int {
	if bytes > 0 {
		return bytes
	}
	return g.tasks[from].OutBytes
}

// EdgeBytes returns the Payload of the edge from->to, or 0 if there is no
// such edge. It scans from's out-row.
func (g *Graph) EdgeBytes(from, to TaskID) int {
	succ, bytes := g.OutEdges(from)
	if k := slices.Index(succ, to); k >= 0 {
		return g.Payload(from, bytes[k])
	}
	return 0
}

// TotalWork returns the sum of the Work of all tasks.
func (g *Graph) TotalWork() float64 {
	var w float64
	for _, t := range g.tasks {
		w += t.Work
	}
	return w
}

// idHeap is a min-heap of task ids backing TopoOrder's ready queue.
type idHeap struct{ ids []TaskID }

func (h *idHeap) Len() int           { return len(h.ids) }
func (h *idHeap) Less(i, j int) bool { return h.ids[i] < h.ids[j] }
func (h *idHeap) Swap(i, j int)      { h.ids[i], h.ids[j] = h.ids[j], h.ids[i] }
func (h *idHeap) Push(x interface{}) { h.ids = append(h.ids, x.(TaskID)) }
func (h *idHeap) Pop() interface{} {
	old := h.ids
	n := len(old)
	x := old[n-1]
	h.ids = old[:n-1]
	return x
}

// TopoOrder returns a topological order of the task ids, or an error if the
// graph contains a cycle. The order is deterministic (Kahn's algorithm with
// a sorted ready set, smallest id first).
func (g *Graph) TopoOrder() ([]TaskID, error) {
	a := g.rows()
	indeg := make([]int, len(g.tasks))
	for id := range g.tasks {
		indeg[id] = a.predOff[id+1] - a.predOff[id]
	}
	// Min-heap of ready ids: the smallest ready id is emitted first, the
	// same order the previous sort-per-iteration implementation produced,
	// at O((V+E) log V) instead of a full sort per emitted task.
	ready := &idHeap{}
	for id := range g.tasks {
		if indeg[id] == 0 {
			ready.ids = append(ready.ids, TaskID(id))
		}
	}
	heap.Init(ready)
	order := make([]TaskID, 0, len(g.tasks))
	for ready.Len() > 0 {
		id := heap.Pop(ready).(TaskID)
		order = append(order, id)
		succ, _ := a.out(id)
		for _, s := range succ {
			indeg[s]--
			if indeg[s] == 0 {
				heap.Push(ready, s)
			}
		}
	}
	if len(order) != len(g.tasks) {
		return nil, fmt.Errorf("graph %s: %w (%d of %d tasks ordered)", g.Name, ErrCyclicGraph, len(order), len(g.tasks))
	}
	return order, nil
}

// cycleFree is the order-agnostic cycle check behind Validate: a plain
// Kahn pass with a FIFO work list. It allocates one integer array (the
// in-degree counts and the work list share a buffer; TaskID's underlying
// type is int, so counts fit) and nothing else — unlike TopoOrder it
// maintains no heap and emits no order, which matters because Validate
// runs on every cold plan.
func (g *Graph) cycleFree() error {
	a := g.rows()
	n := len(g.tasks)
	buf := make([]TaskID, n, 2*n)
	indeg := buf
	queue := buf[n : n : 2*n]
	for id := range g.tasks {
		indeg[id] = TaskID(a.predOff[id+1] - a.predOff[id])
		if indeg[id] == 0 {
			queue = append(queue, TaskID(id))
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		succ, _ := a.out(queue[qi])
		for _, s := range succ {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(queue) != len(g.tasks) {
		return fmt.Errorf("graph %s: %w (%d of %d tasks ordered)", g.Name, ErrCyclicGraph, len(queue), len(g.tasks))
	}
	return nil
}

// Validate checks that the graph is a DAG and that start/stop markers, if
// present, are unique and are a source / sink respectively.
func (g *Graph) Validate() error {
	if err := g.cycleFree(); err != nil {
		return err
	}
	starts, stops := 0, 0
	for _, t := range g.tasks {
		switch t.Kind {
		case KindStart:
			starts++
			if len(g.Pred(t.ID)) != 0 {
				return fmt.Errorf("graph %s: start node %d has predecessors", g.Name, t.ID)
			}
		case KindStop:
			stops++
			if len(g.Succ(t.ID)) != 0 {
				return fmt.Errorf("graph %s: stop node %d has successors", g.Name, t.ID)
			}
		}
		if t.Work < 0 {
			return fmt.Errorf("graph %s: task %d has negative work", g.Name, t.ID)
		}
	}
	if starts > 1 || stops > 1 {
		return fmt.Errorf("graph %s: %d start and %d stop nodes (at most one each)", g.Name, starts, stops)
	}
	return nil
}

// AddStartStop inserts a unique start node preceding all sources and a
// unique stop node succeeding all sinks, as the CM-task compiler does
// (Section 2.2.3). It returns the two new ids. Tasks added later are not
// connected automatically.
func (g *Graph) AddStartStop() (start, stop TaskID) {
	a := g.rows()
	var sources, sinks []TaskID
	for id := range g.tasks {
		if a.predOff[id+1] == a.predOff[id] {
			sources = append(sources, TaskID(id))
		}
		if a.succOff[id+1] == a.succOff[id] {
			sinks = append(sinks, TaskID(id))
		}
	}
	start = g.AddTask(&Task{Name: "start", Kind: KindStart})
	stop = g.AddTask(&Task{Name: "stop", Kind: KindStop})
	for _, s := range sources {
		g.MustEdge(start, s, 0)
	}
	for _, s := range sinks {
		g.MustEdge(s, stop, 0)
	}
	return start, stop
}

// Reachable reports whether there is a directed path from a to b (a == b
// counts as reachable).
func (g *Graph) Reachable(a, b TaskID) bool {
	if a == b {
		return true
	}
	adj := g.rows()
	seen := make([]bool, len(g.tasks))
	stack := []TaskID{a}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		succ, _ := adj.out(id)
		for _, s := range succ {
			if s == b {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// Independent reports whether tasks a and b are independent, i.e. not
// connected by a path in either direction. Independent tasks may be
// executed concurrently on disjoint core groups.
func (g *Graph) Independent(a, b TaskID) bool {
	return a != b && !g.Reachable(a, b) && !g.Reachable(b, a)
}

// CriticalPathWork returns the maximum total Work along any directed path.
func (g *Graph) CriticalPathWork() float64 {
	order, err := g.TopoOrder()
	if err != nil {
		return 0
	}
	a := g.rows()
	finish := make([]float64, len(g.tasks))
	var maxf float64
	for _, id := range order {
		f := g.tasks[id].Work
		var best float64
		pred, _ := a.in(id)
		for _, p := range pred {
			if finish[p] > best {
				best = finish[p]
			}
		}
		finish[id] = best + f
		if finish[id] > maxf {
			maxf = finish[id]
		}
	}
	return maxf
}

// Clone returns a deep copy of the graph structure. Task Meta maps and
// Members slices are copied; Sub graphs are shared (they are scheduled
// hierarchically and never mutated by scheduling).
func (g *Graph) Clone() *Graph {
	c := New(g.Name)
	for _, t := range g.tasks {
		nt := *t
		if t.Meta != nil {
			nt.Meta = make(map[string]int, len(t.Meta))
			for k, v := range t.Meta {
				nt.Meta[k] = v
			}
		}
		if t.Members != nil {
			nt.Members = append([]TaskID(nil), t.Members...)
		}
		c.AddTask(&nt)
	}
	c.edges = g.Edges()
	return c
}
