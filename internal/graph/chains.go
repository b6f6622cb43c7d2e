package graph

import (
	"slices"
)

// ContractionResult is the output of ContractChains: the contracted graph
// and the mapping from original task ids to the id of the contracted node
// containing them.
type ContractionResult struct {
	Graph *Graph
	// NodeOf maps each original task id to its node in the contracted
	// graph.
	NodeOf []TaskID
}

// ContractChains implements step 1 of the layer-based scheduling algorithm
// (Section 3.2): it identifies maximal linear chains of the M-task graph
// and replaces each chain by a single node whose costs are the accumulated
// computation and communication costs of the merged tasks. Merged nodes
// record the original member ids in execution order, so that a schedule of
// the contracted graph can be expanded back to the original tasks.
//
// A linear chain is a path M1 -> M2 -> ... -> Mn (n >= 2) where every node
// except the entry has exactly one predecessor (its chain predecessor) and
// every node except the exit has exactly one successor (its chain
// successor). Start and stop markers and composed nodes are never merged.
//
// The contraction is a streaming single pass over the input: output nodes
// and the members slab are sized exactly up front, and edges are emitted
// by walking the out-rows in source order and appended to the output.
// Contracting an E-edge graph is O(V+E).
func ContractChains(g *Graph) *ContractionResult {
	n := g.Len()
	a := g.rows()
	mergeable := func(id TaskID) bool {
		k := g.Task(id).Kind
		return k == KindBasic
	}
	// next[u] = v if u -> v is a chain link: u has exactly one
	// successor v, v has exactly one predecessor u, both mergeable.
	// Both arrays come from one allocation.
	linkBuf := make([]TaskID, 2*n)
	next, prev := linkBuf[:n:n], linkBuf[n:]
	for i := range linkBuf {
		linkBuf[i] = None
	}
	links := 0
	for u := 0; u < n; u++ {
		uid := TaskID(u)
		succ, _ := a.out(uid)
		if !mergeable(uid) || len(succ) != 1 {
			continue
		}
		v := succ[0]
		if !mergeable(v) || a.predOff[v+1]-a.predOff[v] != 1 {
			continue
		}
		next[uid] = v
		prev[v] = uid
		links++
	}

	// Chain-free graphs (common for solver methods whose micro steps are
	// already fused) contract to themselves: share the input instead of
	// copying it, exactly as the scheduler's DisableChainContraction path
	// does. The input is treated as immutable after planning either way
	// (cached mappings reference it through Schedule.Source).
	if links == 0 {
		res := &ContractionResult{Graph: g, NodeOf: make([]TaskID, n)}
		for i := range res.NodeOf {
			res.NodeOf[i] = TaskID(i)
		}
		return res
	}

	// Every node with no chain predecessor heads exactly one output node
	// (a chain of length >= 2, or itself), and every link is one edge that
	// vanishes inside a chain; size the output exactly.
	outNodes := n - links
	res := &ContractionResult{Graph: New(g.Name + "/contracted"), NodeOf: make([]TaskID, n)}
	res.Graph.Grow(outNodes, g.NumEdges()-links)
	for i := range res.NodeOf {
		res.NodeOf[i] = None
	}

	// Node and member storage come from two exactly-sized slabs: every
	// original task appears in exactly one Members list, and every output
	// node is one Task. Appending within fixed capacity never reallocates,
	// so &taskSlab[i] stays valid.
	taskSlab := make([]Task, outNodes)
	memberSlab := make([]TaskID, 0, n)
	emitted := 0

	// Walk each maximal chain from its head (a node with no chain
	// predecessor) and emit one node per chain; non-chain tasks are
	// copied as-is. Iterate in id order for determinism.
	for u := 0; u < n; u++ {
		uid := TaskID(u)
		if prev[uid] != None {
			continue // interior of some chain
		}
		node := &taskSlab[emitted]
		emitted++
		if next[uid] == None {
			// Singleton: copy the task.
			*node = *g.Task(uid)
			memberSlab = append(memberSlab, uid)
			node.Members = memberSlab[len(memberSlab)-1 : len(memberSlab) : len(memberSlab)]
			nid := res.Graph.AddTask(node)
			res.NodeOf[uid] = nid
			continue
		}
		// Head of a chain of length >= 2: accumulate members.
		start := len(memberSlab)
		var work float64
		var commCount, bcastCount int
		commBytes, bcastBytes := 0, 0
		maxWidth := 0
		for id := uid; id != None; id = next[id] {
			t := g.Task(id)
			memberSlab = append(memberSlab, id)
			work += t.Work
			commCount += t.CommCount
			bcastCount += t.BcastCount
			if t.CommBytes > commBytes {
				commBytes = t.CommBytes
			}
			if t.BcastBytes > bcastBytes {
				bcastBytes = t.BcastBytes
			}
			if t.MaxWidth > 0 && (maxWidth == 0 || t.MaxWidth < maxWidth) {
				maxWidth = t.MaxWidth
			}
		}
		members := memberSlab[start:len(memberSlab):len(memberSlab)]
		exit := members[len(members)-1]
		*node = Task{
			Name:       "chain[" + g.Task(uid).Name + ".." + g.Task(exit).Name + "]",
			Kind:       KindBasic,
			Work:       work,
			CommBytes:  commBytes,
			CommCount:  commCount,
			BcastBytes: bcastBytes,
			BcastCount: bcastCount,
			OutBytes:   g.Task(exit).OutBytes,
			MaxWidth:   maxWidth,
			Members:    members,
		}
		nid := res.Graph.AddTask(node)
		for _, m := range members {
			res.NodeOf[m] = nid
		}
	}

	// Re-create edges between contracted nodes from the out-rows in id
	// order. Chain-internal edges vanish; the others leave only chain
	// exits and enter only chain heads, so no contracted pair repeats.
	for u := 0; u < n; u++ {
		cf := res.NodeOf[u]
		succ, bytes := a.out(TaskID(u))
		for k, v := range succ {
			if ct := res.NodeOf[v]; ct != cf {
				b := bytes[k]
				if b == 0 {
					b = g.Task(TaskID(u)).OutBytes
				}
				res.Graph.MustEdge(cf, ct, b)
			}
		}
	}
	return res
}

// Layer is a set of pairwise independent tasks scheduled together.
type Layer []TaskID

// Layers partitions the graph into layers of independent M-tasks (step 2 of
// the layer-based algorithm): a greedy algorithm runs over the graph in a
// breadth-first manner and puts as many independent nodes as possible into
// the current layer — i.e. every task enters the earliest layer in which
// all of its predecessors have already been placed. Start and stop markers
// carry no computation and are not assigned to any layer.
//
// The partition runs in O(V + E + V log w) for maximum layer width w: each
// level's ready set is carried forward and sorted, instead of rescanning
// every task per level (which made layering time-step-unrolled graphs
// quadratic in the step count).
func Layers(g *Graph) []Layer {
	n := g.Len()
	a := g.rows()
	indeg := make([]int, n)
	skip := func(id TaskID) bool {
		k := g.Task(id).Kind
		return k == KindStart || k == KindStop
	}
	// ready and next are the two halves of one buffer, swapped per level.
	readyBuf := make([]TaskID, 0, 2*n)
	ready, next := readyBuf[0:0:n], readyBuf[n:n:2*n]
	for id := 0; id < n; id++ {
		indeg[id] = a.predOff[id+1] - a.predOff[id]
		if indeg[id] == 0 {
			ready = append(ready, TaskID(id))
		}
	}
	// Every task lands in at most one layer, so all layers are carved
	// from one exactly-sized slab (capacity never grows, so the windows
	// stay valid).
	layerSlab := make([]TaskID, 0, n)
	var layers []Layer
	for len(ready) > 0 {
		// Emit in ascending id order, matching the former full scan.
		slices.Sort(ready)
		start := len(layerSlab)
		next = next[:0]
		for _, id := range ready {
			succ, _ := a.out(id)
			for _, s := range succ {
				indeg[s]--
				if indeg[s] == 0 {
					next = append(next, s)
				}
			}
			if !skip(id) {
				layerSlab = append(layerSlab, id)
			}
		}
		if len(layerSlab) > start {
			layers = append(layers, Layer(layerSlab[start:len(layerSlab):len(layerSlab)]))
		}
		ready, next = next, ready
		// A cycle leaves tasks with positive in-degree unplaced; the
		// loop simply ends (Validate reports cycles properly).
	}
	return layers
}
