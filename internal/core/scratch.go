package core

import (
	"slices"
	"sync"

	"mtask/internal/graph"
)

// taskTime pairs a task with its execution time on the smallest group size
// of a candidate partition; the g-search orders tasks by it (LPT).
type taskTime struct {
	id graph.TaskID
	t  float64
}

// searchScratch is the pooled arena backing one worker's g-search: every
// buffer a candidate evaluation needs — group sizes, the LPT-sorted task
// list, per-group loads, the load min-heap, and the task-to-group
// assignment — lives here and is reused across candidates, layers, and
// plans. Capacities grow in power-of-two size classes (see growTo), so a
// scratch recycled through the pool serves any layer whose width fits its
// class without reallocating; evaluating a candidate allocates nothing.
type searchScratch struct {
	sizes []int
	tts   []taskTime
	load  []float64
	heap  []int32 // min-heap of group indices keyed by (load, index)
	asg   []int32 // task position (LPT order) -> assigned group
}

var searchScratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

func getSearchScratch() *searchScratch   { return searchScratchPool.Get().(*searchScratch) }
func putSearchScratch(sc *searchScratch) { searchScratchPool.Put(sc) }

// growTo returns buf resized to n, reallocating to the next power-of-two
// capacity class only when n exceeds the current class. Rounding up means a
// pooled buffer is reused across the many slightly-different layer widths
// of a graph instead of chasing each one.
func growTo[T any](buf []T, n int) []T {
	if cap(buf) < n {
		c := 1
		for c < n {
			c <<= 1
		}
		buf = make([]T, c)
	}
	return buf[:n]
}

// prepare sizes every buffer for a candidate with gCount groups over a
// layer of the given width.
func (sc *searchScratch) prepare(gCount, width int) {
	sc.sizes = growTo(sc.sizes, gCount)
	sc.load = growTo(sc.load, gCount)
	sc.heap = growTo(sc.heap, gCount)
	sc.tts = growTo(sc.tts, width)
	sc.asg = growTo(sc.asg, width)
}

// sortTaskTimes orders tasks by decreasing execution time, ties by
// ascending id. Task ids within a layer are distinct, so the key is a
// total order and an unstable sort yields the same permutation the former
// stable sort did.
func sortTaskTimes(tts []taskTime) {
	slices.SortFunc(tts, func(a, b taskTime) int {
		if a.t != b.t {
			if a.t > b.t {
				return -1
			}
			return 1
		}
		if a.id < b.id {
			return -1
		}
		if a.id > b.id {
			return 1
		}
		return 0
	})
}

// heapLess orders group indices by accumulated load, ties by index — the
// "assign to the subset with the smallest accumulated execution time" rule.
func heapLess(h []int32, load []float64, i, j int) bool {
	a, b := h[i], h[j]
	if load[a] != load[b] {
		return load[a] < load[b]
	}
	return a < b
}

// siftDown restores the min-heap invariant after the root's load changed.
// Because (load, index) keys are totally ordered, the root before the
// update is the unique minimum, so "update root in place and sift" selects
// exactly the same group sequence as a pop/push pair — without the
// interface boxing of container/heap.
func siftDown(h []int32, load []float64, i int) {
	n := len(h)
	for {
		small := i
		if l := 2*i + 1; l < n && heapLess(h, load, l, small) {
			small = l
		}
		if r := 2*i + 2; r < n && heapLess(h, load, r, small) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// candidateTime evaluates one (layer, gCount) candidate of Algorithm 1 —
// equal split, LPT order, per-group accumulation on the group's actual
// size — and returns the resulting layer time. The partition is left on
// the scratch (sizes, LPT order, task-to-group assignment) for assign to
// materialize. Everything runs on the scratch arena; a call performs no
// heap allocation.
func (s *Scheduler) candidateTime(g *graph.Graph, layer graph.Layer, P, gCount int, sc *searchScratch) float64 {
	sc.prepare(gCount, len(layer))
	sizes := sc.sizes[:gCount]
	equalSizesInto(sizes, P, gCount)

	tts := sc.tts[:len(layer)]
	minSize := sizes[gCount-1]
	for i, id := range layer {
		tts[i] = taskTime{id: id, t: s.Model.SymbolicTaskTime(g.Task(id), minSize)}
	}
	sortTaskTimes(tts)

	load := sc.load[:gCount]
	for i := range load {
		load[i] = 0
	}
	asg := sc.asg[:len(layer)]
	if s.RoundRobin {
		for i, tt := range tts {
			gi := i % gCount
			asg[i] = int32(gi)
			load[gi] += s.Model.SymbolicTaskTime(g.Task(tt.id), sizes[gi])
		}
	} else {
		h := sc.heap[:gCount]
		// Ascending indices with all-zero loads already satisfy the
		// heap invariant; no Init needed.
		for i := range h {
			h[i] = int32(i)
		}
		for i, tt := range tts {
			gi := h[0]
			asg[i] = gi
			load[gi] += s.Model.SymbolicTaskTime(g.Task(tt.id), sizes[gi])
			siftDown(h, load, 0)
		}
	}
	var max float64
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	return max
}
