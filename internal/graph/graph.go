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
type Graph struct {
	Name  string
	tasks []*Task
	succ  [][]TaskID
	pred  [][]TaskID
	// out mirrors succ with the *Edge values, so edge enumeration does
	// not have to go through the edges map.
	out    [][]*Edge
	nedges int

	// edges is the (from, to) -> *Edge lookup index. It is built lazily
	// from out on the first point lookup (Edge, AddEdge), so graphs
	// assembled through the streaming path (AddUniqueEdge, chain
	// contraction) never pay for a per-edge map insert they may never
	// need. idxMu makes the lazy build safe when an immutable graph is
	// shared between goroutines (cached mappings are).
	edges map[[2]TaskID]*Edge
	idxMu sync.Mutex

	// edgeSlab, when carved by PresizeAdjacency, backs Edge values so
	// streaming builders allocate edges in one block instead of one
	// object each. Its capacity is fixed at carve time, so *Edge
	// pointers into it stay valid.
	edgeSlab []Edge
}

// New returns an empty named graph.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// Grow preallocates capacity for n additional tasks and hints at e
// additional edges, so bulk builders (generated benchmark graphs, chain
// contraction, JSON decoding) append without intermediate reallocations.
func (g *Graph) Grow(n, e int) {
	if n > 0 {
		g.tasks = slices.Grow(g.tasks, n)
		g.succ = slices.Grow(g.succ, n)
		g.pred = slices.Grow(g.pred, n)
		g.out = slices.Grow(g.out, n)
	}
	_ = e // succ/pred/out grow per task; the edge index is lazy
}

// AddTask adds a task and returns its id. The task's ID field is set by the
// graph; any preset value is ignored.
func (g *Graph) AddTask(t *Task) TaskID {
	id := TaskID(len(g.tasks))
	t.ID = id
	g.tasks = append(g.tasks, t)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	g.out = append(g.out, nil)
	return id
}

// AddBasic is a convenience for adding a basic computational task.
func (g *Graph) AddBasic(name string, work float64) TaskID {
	return g.AddTask(&Task{Name: name, Kind: KindBasic, Work: work})
}

// AddEdge adds the input-output relation from -> to carrying the given
// number of bytes. Duplicate edges are merged (bytes accumulate). Self
// edges are rejected.
func (g *Graph) AddEdge(from, to TaskID, bytes int) error {
	if !g.valid(from) || !g.valid(to) {
		return fmt.Errorf("graph %s: edge %d->%d references unknown task", g.Name, from, to)
	}
	if from == to {
		return fmt.Errorf("graph %s: self edge on task %d", g.Name, from)
	}
	idx := g.edgeIndex()
	key := [2]TaskID{from, to}
	if e, ok := idx[key]; ok {
		e.Bytes += bytes
		return nil
	}
	e := &Edge{From: from, To: to, Bytes: bytes}
	idx[key] = e
	g.appendEdge(e)
	return nil
}

// AddUniqueEdge is the streaming counterpart of AddEdge for bulk builders:
// it appends the edge from -> to without consulting (or building) the edge
// lookup index, so ingesting an E-edge graph is O(E) with no intermediate
// maps. The caller guarantees that both ids are valid, from != to, and
// that the edge does not duplicate an existing one — duplicates are NOT
// merged on this path (Validate and the lazy index would then see the
// first occurrence only). Chain contraction and the generated benchmark
// graphs satisfy this by construction.
func (g *Graph) AddUniqueEdge(from, to TaskID, bytes int) {
	e := g.newEdge(from, to, bytes)
	if g.edges != nil {
		g.edges[[2]TaskID{from, to}] = e
	}
	g.appendEdge(e)
}

// newEdge allocates an Edge, carving from the presized slab while it has
// room (the slab's capacity never changes, so pointers into it are
// stable).
func (g *Graph) newEdge(from, to TaskID, bytes int) *Edge {
	if len(g.edgeSlab) < cap(g.edgeSlab) {
		g.edgeSlab = g.edgeSlab[:len(g.edgeSlab)+1]
		e := &g.edgeSlab[len(g.edgeSlab)-1]
		e.From, e.To, e.Bytes = from, to, bytes
		return e
	}
	return &Edge{From: from, To: to, Bytes: bytes}
}

// PresizeAdjacency carves exact-capacity adjacency lists for tasks
// 0..len(outDeg)-1 out of two shared slabs (one TaskID slab holding the
// succ windows followed by the pred windows, one *Edge slab) plus an Edge
// value slab, given every task's final out- and in-degree. Streaming
// builders that know the degrees up front (chain contraction counts them
// in a prepass, generated graphs know them by construction) call it once
// after adding their tasks; the AddUniqueEdge appends that follow stay
// inside the carved capacities, so ingesting E edges costs three block
// allocations instead of O(E) incremental slice growths and E edge-object
// allocations. Appending
// beyond a carved capacity stays correct — the slice simply grows off the
// slab. Existing adjacency entries are preserved.
func (g *Graph) PresizeAdjacency(outDeg, inDeg []int) {
	totOut, totIn := 0, 0
	for _, d := range outDeg {
		totOut += d
	}
	for _, d := range inDeg {
		totIn += d
	}
	// succ and pred share one TaskID slab (succ windows first, pred
	// windows after), halving the allocation count of the prepass.
	idSlab := make([]TaskID, 0, totOut+totIn)
	outSlab := make([]*Edge, 0, totOut)
	// A fresh edge slab: edges already handed out keep their old backing
	// array alive through their own pointers.
	g.edgeSlab = make([]Edge, 0, totOut)
	oOff, iOff := 0, totOut
	for u, d := range outDeg {
		g.succ[u] = append(idSlab[oOff:oOff:oOff+d], g.succ[u]...)
		g.out[u] = append(outSlab[oOff:oOff:oOff+d], g.out[u]...)
		oOff += d
	}
	for u, d := range inDeg {
		g.pred[u] = append(idSlab[iOff:iOff:iOff+d], g.pred[u]...)
		iOff += d
	}
}

// appendEdge links an edge into the adjacency slices.
func (g *Graph) appendEdge(e *Edge) {
	g.succ[e.From] = append(g.succ[e.From], e.To)
	g.pred[e.To] = append(g.pred[e.To], e.From)
	g.out[e.From] = append(g.out[e.From], e)
	g.nedges++
}

// edgeIndex returns the (from, to) -> *Edge map, building it from the
// adjacency slices on first use. The build is guarded so concurrent point
// lookups on a shared immutable graph are safe; mutation (AddEdge) is
// construction-time and single-threaded as before.
func (g *Graph) edgeIndex() map[[2]TaskID]*Edge {
	g.idxMu.Lock()
	defer g.idxMu.Unlock()
	if g.edges == nil {
		idx := make(map[[2]TaskID]*Edge, g.nedges)
		for _, es := range g.out {
			for _, e := range es {
				idx[[2]TaskID{e.From, e.To}] = e
			}
		}
		g.edges = idx
	}
	return g.edges
}

// MustEdge is AddEdge that panics on error, for graph construction code
// whose task ids are known-correct by construction.
func (g *Graph) MustEdge(from, to TaskID, bytes int) {
	if err := g.AddEdge(from, to, bytes); err != nil {
		panic(err)
	}
}

func (g *Graph) valid(id TaskID) bool { return id >= 0 && int(id) < len(g.tasks) }

// Task returns the task with the given id.
func (g *Graph) Task(id TaskID) *Task { return g.tasks[id] }

// Len returns the number of tasks.
func (g *Graph) Len() int { return len(g.tasks) }

// Tasks returns all tasks in id order. The slice is shared; do not modify.
func (g *Graph) Tasks() []*Task { return g.tasks }

// Succ returns the successor ids of a task. Shared slice; do not modify.
func (g *Graph) Succ(id TaskID) []TaskID { return g.succ[id] }

// Pred returns the predecessor ids of a task. Shared slice; do not modify.
func (g *Graph) Pred(id TaskID) []TaskID { return g.pred[id] }

// OutEdges returns the outgoing edges of a task in insertion order.
// Shared slice; do not modify.
func (g *Graph) OutEdges(id TaskID) []*Edge { return g.out[id] }

// Edge returns the edge from->to, or nil.
func (g *Graph) Edge(from, to TaskID) *Edge { return g.edgeIndex()[[2]TaskID{from, to}] }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.nedges }

// Edges returns all edges in deterministic (from, to) order. The
// per-source edge lists are concatenated in source order and each small
// tail is sorted by destination — no map iteration and no global sort,
// which matters on the planning hot path (ContractChains enumerates the
// edges of every solver graph it contracts).
func (g *Graph) Edges() []*Edge {
	es := make([]*Edge, 0, g.nedges)
	for u := range g.out {
		es = append(es, g.out[u]...)
		tail := es[len(es)-len(g.out[u]):]
		slices.SortFunc(tail, func(a, b *Edge) int { return int(a.To) - int(b.To) })
	}
	return es
}

// EdgeBytes returns the re-distribution payload of the edge from->to,
// falling back to the producer's OutBytes when the edge carries no explicit
// size.
func (g *Graph) EdgeBytes(from, to TaskID) int {
	e := g.Edge(from, to)
	if e == nil {
		return 0
	}
	if e.Bytes > 0 {
		return e.Bytes
	}
	return g.tasks[from].OutBytes
}

// TotalWork returns the sum of the Work of all tasks.
func (g *Graph) TotalWork() float64 {
	var w float64
	for _, t := range g.tasks {
		w += t.Work
	}
	return w
}

// TopoOrder returns a topological order of the task ids, or an error if the
// graph contains a cycle. The order is deterministic (Kahn's algorithm with
// a sorted ready set, smallest id first).
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

func (g *Graph) TopoOrder() ([]TaskID, error) {
	indeg := make([]int, len(g.tasks))
	for id := range g.tasks {
		indeg[id] = len(g.pred[id])
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
		for _, s := range g.succ[id] {
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

// Validate checks that the graph is a DAG and that start/stop markers, if
// present, are unique and are a source / sink respectively.
// cycleFree is the order-agnostic cycle check behind Validate: a plain
// Kahn pass with a FIFO work list. It allocates one integer array (the
// in-degree counts and the work list share a buffer; TaskID's underlying
// type is int, so counts fit) and nothing else — unlike TopoOrder it
// maintains no heap and emits no order, which matters because Validate
// runs on every cold plan.
func (g *Graph) cycleFree() error {
	n := len(g.tasks)
	buf := make([]TaskID, n, 2*n)
	indeg := buf
	queue := buf[n : n : 2*n]
	for id := range g.tasks {
		indeg[id] = TaskID(len(g.pred[id]))
		if indeg[id] == 0 {
			queue = append(queue, TaskID(id))
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		for _, s := range g.succ[queue[qi]] {
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

func (g *Graph) Validate() error {
	if err := g.cycleFree(); err != nil {
		return err
	}
	starts, stops := 0, 0
	for _, t := range g.tasks {
		switch t.Kind {
		case KindStart:
			starts++
			if len(g.pred[t.ID]) != 0 {
				return fmt.Errorf("graph %s: start node %d has predecessors", g.Name, t.ID)
			}
		case KindStop:
			stops++
			if len(g.succ[t.ID]) != 0 {
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
	var sources, sinks []TaskID
	for id := range g.tasks {
		if len(g.pred[id]) == 0 {
			sources = append(sources, TaskID(id))
		}
		if len(g.succ[id]) == 0 {
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
	seen := make([]bool, len(g.tasks))
	stack := []TaskID{a}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.succ[id] {
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
	finish := make([]float64, len(g.tasks))
	var maxf float64
	for _, id := range order {
		f := g.tasks[id].Work
		var best float64
		for _, p := range g.pred[id] {
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
	for _, e := range g.Edges() {
		c.MustEdge(e.From, e.To, e.Bytes)
	}
	return c
}
