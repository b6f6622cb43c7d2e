package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"mtask/internal/cost"
	"mtask/internal/graph"
	"mtask/internal/obs"
)

// Scheduler runs the layer-based scheduling algorithm (Algorithm 1). The
// zero value with a Model is a ready-to-use scheduler with the paper's
// behaviour; the Disable*/RoundRobin switches exist for the ablation
// studies called out in DESIGN.md.
type Scheduler struct {
	// Model supplies the symbolic cost functions Tsymb.
	Model *cost.Model

	// ForceGroups forces the group count of every layer (clamped to the
	// layer width and core count): 1 yields the data-parallel schedule,
	// a large value the maximally task-parallel schedule. 0 searches
	// all group counts as in Algorithm 1.
	ForceGroups int

	// MinGroups and MaxGroups bound the group-count search (0 = no
	// bound). Unlike ForceGroups the search still runs; the bounds are
	// clamped to the feasible range of each layer.
	MinGroups, MaxGroups int

	// Parallel caps the number of workers evaluating group-count
	// candidates concurrently across all layers; 0 or less means
	// GOMAXPROCS, and 1 runs the search on the calling goroutine alone.
	// The result is bit-identical for every worker count: candidates are
	// evaluated independently and each layer's reduction breaks ties
	// towards the smallest group count.
	Parallel int

	// DisableChainContraction skips scheduling step 1.
	DisableChainContraction bool

	// DisableAdjustment skips the group size adjustment step.
	DisableAdjustment bool

	// RoundRobin replaces the LPT task-to-group assignment by a naive
	// round-robin assignment.
	RoundRobin bool

	// Reuse, when non-nil, is consulted before a layer is searched: a
	// non-nil result is adopted verbatim as the layer's schedule — no
	// candidate evaluation, no adjustment. The graph passed to the hook is
	// the graph being scheduled (after chain contraction). The caller
	// guarantees the reused schedule is exactly what the search would
	// produce (the planner's incremental path matches layers by cost-field
	// fingerprint, which implies identical search results). The hook runs
	// on the calling goroutine, in layer order, before any candidate is
	// evaluated.
	Reuse func(g *graph.Graph, li int, layer graph.Layer) *LayerSchedule

	// Trace, when non-nil, records the g-search on the recorder's
	// control track: one "g-search" span for the whole search, one
	// decision instant per searched layer (reused layers get none), and a
	// "plan.candidates" counter of evaluated (layer, g) pairs. Tracing
	// never alters scheduling decisions.
	Trace *obs.Recorder
}

// Schedule computes a layered schedule of g on P symbolic cores.
func (s *Scheduler) Schedule(g *graph.Graph, P int) (*Schedule, error) {
	return s.ScheduleCtx(context.Background(), g, P)
}

// ScheduleCtx is Schedule with cooperative cancellation: if ctx is canceled
// before the schedule is complete, the search stops and an error wrapping
// ErrCanceled is returned.
func (s *Scheduler) ScheduleCtx(ctx context.Context, g *graph.Graph, P int) (*Schedule, error) {
	if P < 1 {
		return nil, fmt.Errorf("cannot schedule %q on %d cores: %w", g.Name, P, ErrNoCores)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}

	sched := &Schedule{Source: g, P: P}
	if s.DisableChainContraction {
		sched.Graph = g
		sched.NodeOf = make([]graph.TaskID, g.Len())
		for i := range sched.NodeOf {
			sched.NodeOf[i] = graph.TaskID(i)
		}
	} else {
		res := graph.ContractChains(g)
		sched.Graph = res.Graph
		sched.NodeOf = res.NodeOf
	}

	layers, err := s.search(ctx, sched.Graph, graph.Layers(sched.Graph), P)
	if err != nil {
		return nil, err
	}
	sched.Layers = layers
	for _, ls := range sched.Layers {
		sched.Time += ls.Time
	}
	return sched, nil
}

// candidate is one unit of the search: group count g for layer li, and the
// layer time t it yields.
type candidate struct {
	li, g int32
	t     float64
}

// search is Algorithm 1's loop over layers and group counts. Layers are
// mutually independent in the layer-based algorithm and candidates within
// a layer are independent by construction, so every (layer, g) candidate
// is evaluated on a bounded worker pool; one of the workers is the calling
// goroutine, so a single worker starts no goroutine. Each layer is then
// reduced in order (strictly smaller time wins, ties keep the smaller
// group count), so the result does not depend on the worker count. Workers
// evaluate candidate times only (allocation-free, on pooled scratch); the
// winner of each layer is re-evaluated and materialized once after the
// reduction.
func (s *Scheduler) search(ctx context.Context, g *graph.Graph, layers []graph.Layer, P int) ([]*LayerSchedule, error) {
	searchStart := s.Trace.Now()
	out := make([]*LayerSchedule, len(layers))
	first := make([]int, len(layers)+1) // layer li's candidates are cands[first[li]:first[li+1]]
	for li, layer := range layers {
		first[li+1] = first[li]
		if s.Reuse != nil {
			if out[li] = s.Reuse(g, li, layer); out[li] != nil {
				continue
			}
		}
		lo, hi := s.groupBounds(layer, P)
		first[li+1] += hi - lo + 1
	}
	cands := make([]candidate, first[len(layers)])
	for li, layer := range layers {
		lo, _ := s.groupBounds(layer, P)
		for i := first[li]; i < first[li+1]; i++ {
			cands[i] = candidate{li: int32(li), g: int32(lo + i - first[li])}
		}
	}

	var next atomic.Int64
	evaluate := func() {
		sc := getSearchScratch()
		defer putSearchScratch(sc)
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(cands) {
				return
			}
			c := &cands[i]
			c.t = s.candidateTime(g, layers[c.li], P, int(c.g), sc)
		}
	}
	var wg sync.WaitGroup
	for w := s.workers(len(cands)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			evaluate()
		}()
	}
	evaluate()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("scheduling %q: %w (%w)", g.Name, ErrCanceled, err)
	}

	sc := getSearchScratch()
	defer putSearchScratch(sc)
	for li, layer := range layers {
		if out[li] != nil {
			continue // reused
		}
		best, bestG := math.Inf(1), int(cands[first[li]].g)
		for _, c := range cands[first[li]:first[li+1]] {
			if c.t < best {
				best, bestG = c.t, int(c.g)
			}
		}
		t := s.candidateTime(g, layer, P, bestG, sc)
		out[li] = s.adjusted(g, assign(layer, bestG, t, sc), P)
		if s.Trace != nil {
			s.Trace.Instant(fmt.Sprintf("layer %d: %d groups", li, len(out[li].Groups)),
				"plan", obs.ControlRank, s.Trace.Now())
		}
	}
	s.Trace.Span("g-search", "plan", obs.ControlRank, -1, -1, searchStart, s.Trace.Now())
	s.Trace.Counter("plan.candidates").Add(int64(len(cands)))
	return out, nil
}

// workers resolves Parallel into the worker count for n candidates:
// Parallel <= 0 means GOMAXPROCS, and there are never more workers than
// candidates.
func (s *Scheduler) workers(n int) int {
	w := s.Parallel
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, n)
}

// groupBounds returns the candidate group-count range [lo, hi] of a layer:
// all g in 1..P clamped to the layer width (a group count above the width
// leaves groups idle and can never win, so the clamp is equivalent to the
// paper's 1..P loop), further narrowed by ForceGroups or the
// MinGroups/MaxGroups search bounds.
func (s *Scheduler) groupBounds(layer graph.Layer, P int) (lo, hi int) {
	maxG := P
	if len(layer) < maxG {
		maxG = len(layer)
	}
	lo, hi = 1, maxG
	if s.ForceGroups > 0 {
		fg := s.ForceGroups
		if fg > maxG {
			fg = maxG
		}
		return fg, fg
	}
	if s.MaxGroups > 0 && hi > s.MaxGroups {
		hi = s.MaxGroups
	}
	if s.MinGroups > 0 && lo < s.MinGroups {
		lo = s.MinGroups
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// adjusted applies the group size adjustment step to the winning candidate
// of a layer's search.
func (s *Scheduler) adjusted(g *graph.Graph, bestLS *LayerSchedule, P int) *LayerSchedule {
	if !s.DisableAdjustment && bestLS.NumGroups() > 1 {
		adj := s.adjust(g, bestLS, P)
		if adj.Time <= bestLS.Time {
			bestLS = adj
		}
	}
	return bestLS
}

// assign materializes the candidate with gCount groups that candidateTime
// last evaluated on sc, whose layer time is t: the group sizes, the LPT
// order and the task-to-group assignment are read back from the scratch,
// so the schedule is exactly the one that was timed. Only the returned
// LayerSchedule is allocated (sizes, one task slab, the group headers); the
// per-group task order is LPT order restricted to each group.
func assign(layer graph.Layer, gCount int, t float64, sc *searchScratch) *LayerSchedule {
	sizes := slices.Clone(sc.sizes[:gCount]) // retained by the LayerSchedule
	tts := sc.tts[:len(layer)]
	asg := sc.asg[:len(layer)]

	// Carve the partition from a single backing slab: count group
	// populations, carve zero-length full-capacity windows, fill in LPT
	// order.
	counts := sc.heap[:gCount] // the heap is spent; reuse as counters
	for i := range counts {
		counts[i] = 0
	}
	for _, gi := range asg {
		counts[gi]++
	}
	backing := make([]graph.TaskID, len(layer))
	groups := make([][]graph.TaskID, gCount)
	off := 0
	for gi, c := range counts {
		groups[gi] = backing[off : off : off+int(c)]
		off += int(c)
	}
	for i, gi := range asg {
		groups[gi] = append(groups[gi], tts[i].id)
	}
	return &LayerSchedule{Layer: layer, Groups: groups, Sizes: sizes, Time: t}
}

// adjust implements the group adjustment step: group sizes are recomputed
// proportionally to the sequential computational work Tseq(Gl) assigned to
// each group, rounded such that the total number of symbolic cores stays P
// and every non-empty group keeps at least one core.
func (s *Scheduler) adjust(g *graph.Graph, ls *LayerSchedule, P int) *LayerSchedule {
	gCount := ls.NumGroups()
	seq := make([]float64, gCount)
	var total float64
	for gi, tasks := range ls.Groups {
		for _, id := range tasks {
			seq[gi] += g.Task(id).Work
		}
		total += seq[gi]
	}
	if total <= 0 {
		return ls
	}
	sizes := proportionalSizes(seq, total, P)

	adj := &LayerSchedule{Layer: ls.Layer, Groups: ls.Groups, Sizes: sizes}
	load := make([]float64, gCount)
	for gi, tasks := range ls.Groups {
		for _, id := range tasks {
			load[gi] += s.Model.SymbolicTaskTime(g.Task(id), sizes[gi])
		}
		if load[gi] > adj.Time {
			adj.Time = load[gi]
		}
	}
	return adj
}

// equalSizes splits P cores into g groups of (almost) equal size; the first
// P%g groups receive one extra core.
func equalSizes(P, g int) []int {
	sizes := make([]int, g)
	equalSizesInto(sizes, P, g)
	return sizes
}

// equalSizesInto is equalSizes into a caller-provided buffer.
func equalSizesInto(sizes []int, P, g int) {
	base, rem := P/g, P%g
	for i := range sizes {
		sizes[i] = base
		if i < rem {
			sizes[i]++
		}
	}
}

// ProportionalGroupSizes computes group sizes proportional to the given
// work shares (the group adjustment rule of Algorithm 1): round(P * w_l /
// total) with a largest-remainder correction so the sizes sum to P and a
// floor of one core per group; without positive total work the cores are
// split equally. It returns an error for no groups or more groups than
// cores, where the floor cannot hold. It is exported for workload
// builders that partition cores outside the layer scheduler (e.g. the
// multi-zone benchmark).
func ProportionalGroupSizes(work []float64, P int) ([]int, error) {
	if len(work) == 0 || P < len(work) {
		return nil, fmt.Errorf("core: cannot split %d cores into %d groups of at least one core", P, len(work))
	}
	var total float64
	for _, w := range work {
		total += w
	}
	if total <= 0 {
		return equalSizes(P, len(work)), nil
	}
	return proportionalSizes(work, total, P), nil
}

// proportionalSizes computes round(g_l = P * seq_l/total) with a largest-
// remainder correction so the sizes sum to P, and a floor of one core per
// group. It needs P >= len(seq) > 0 and total > 0.
func proportionalSizes(seq []float64, total float64, P int) []int {
	g := len(seq)
	sizes := make([]int, g)
	type frac struct {
		i int
		f float64
	}
	fracs := make([]frac, g)
	sum := 0
	for i, w := range seq {
		exact := float64(P) * w / total
		sizes[i] = int(exact)
		if sizes[i] < 1 {
			sizes[i] = 1
		}
		fracs[i] = frac{i: i, f: exact - math.Floor(exact)}
		sum += sizes[i]
	}
	// Distribute the remainder to the groups with the largest
	// fractional parts (or take cores back from the smallest parts).
	sort.Slice(fracs, func(a, b int) bool {
		if fracs[a].f != fracs[b].f {
			return fracs[a].f > fracs[b].f
		}
		return fracs[a].i < fracs[b].i
	})
	for k := 0; sum < P; k = (k + 1) % g {
		sizes[fracs[k].i]++
		sum++
	}
	for k := g - 1; sum > P; k = (k - 1 + g) % g {
		if sizes[fracs[k].i] > 1 {
			sizes[fracs[k].i]--
			sum--
		}
	}
	return sizes
}

// DataParallel returns the pure data-parallel schedule (one group per
// layer: all tasks execute one after another on all P cores). It is the
// baseline "dp" program version of the evaluation.
func DataParallel(model *cost.Model, g *graph.Graph, P int) (*Schedule, error) {
	s := &Scheduler{Model: model, ForceGroups: 1}
	return s.Schedule(g, P)
}

// MaxTaskParallel returns the schedule exploiting the maximum degree of
// task parallelism: every layer uses as many groups as it has tasks.
func MaxTaskParallel(model *cost.Model, g *graph.Graph, P int) (*Schedule, error) {
	s := &Scheduler{Model: model, ForceGroups: P}
	return s.Schedule(g, P)
}
