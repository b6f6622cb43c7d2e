package plan

import (
	"sync"

	"mtask/internal/core"
	"mtask/internal/graph"
)

// Incremental replanning: solver time-step unrolling produces request
// graphs that extend or perturb an earlier graph by a handful of nodes,
// which misses the whole-graph schedule cache even though almost every
// layer of the contracted graph is unchanged. The planner therefore keeps
// a second, layer-granular index: for every *family* of requests (same
// machine, strategy, core count, cost model and scheduler knobs — a cache
// Key minus its graph fingerprint) it remembers the searched schedule of
// every layer it has planned, keyed by LayerFingerprint. A later cold plan
// in the same family installs a core.Scheduler.Reuse hook that adopts the
// remembered schedule for every layer whose fingerprint matches and
// searches only the genuinely new or perturbed layers.
//
// Reuse is sound because a layer's search result is a pure function of the
// family key and the fingerprinted per-task cost fields: tasks within a
// layer are listed in ascending id order, so task *position* determines
// the LPT order and all tie-breaking, and the remembered schedule — stored
// positionally — remaps onto the new layer's task ids bit-identically to
// what a fresh search would produce. Mapping always runs fresh on the
// patched schedule, so the resulting core.Mapping is byte-for-byte the
// cold one (the equivalence is enforced by TestIncrementalEquivalence).

// maxFamilies bounds the number of distinct request families remembered;
// maxFamilyLayers bounds the remembered layer schedules per family. Both
// evict in insertion order — the index is a performance hint, never a
// correctness dependency.
const (
	maxFamilies     = 64
	maxFamilyLayers = 16384
)

// familyIndex is the planner's layer-granular schedule memory.
type familyIndex struct {
	mu    sync.Mutex
	m     map[uint64]*family
	order []uint64
}

// family holds the remembered layer schedules of one request family.
type family struct {
	mu     sync.Mutex
	layers map[uint64]*layerTemplate
	order  []uint64
}

// layerTemplate is one remembered layer schedule in positional form:
// groups hold indices into the (ascending-id) layer task list rather than
// task ids, so the template transfers between graphs whose layers match by
// fingerprint but differ in task numbering. sizes and time are the final
// (post-adjustment) values of the remembered search.
type layerTemplate struct {
	width  int
	groups [][]int32
	sizes  []int
	time   float64
}

// get returns the family for the key, creating it if needed.
func (fi *familyIndex) get(key uint64) *family {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.m == nil {
		fi.m = make(map[uint64]*family)
	}
	f, ok := fi.m[key]
	if !ok {
		f = &family{layers: make(map[uint64]*layerTemplate)}
		fi.m[key] = f
		fi.order = append(fi.order, key)
		for len(fi.order) > maxFamilies {
			delete(fi.m, fi.order[0])
			fi.order = fi.order[1:]
		}
	}
	return f
}

// purge drops every remembered family.
func (fi *familyIndex) purge() {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.m = nil
	fi.order = nil
}

// lookup returns the remembered template for a layer fingerprint, or nil.
func (f *family) lookup(fp uint64) *layerTemplate {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.layers[fp]
}

// remember stores a template for a layer fingerprint if none is present.
func (f *family) remember(fp uint64, tpl *layerTemplate) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.layers[fp]; ok {
		return
	}
	f.layers[fp] = tpl
	f.order = append(f.order, fp)
	for len(f.order) > maxFamilyLayers {
		delete(f.layers, f.order[0])
		f.order = f.order[1:]
	}
}

// incrementalState threads one cold plan's incremental bookkeeping: the
// Reuse hook it installs on the scheduler, the per-layer fingerprints it
// computed (in layer order, aligned with the schedule's layers), and the
// reuse counts that become plan.Info and the obs counters.
type incrementalState struct {
	family  *family
	fps     []uint64
	reused  int
	patched int

	// idSlab and grpSlab back the task lists and group headers of every
	// adopted layer schedule of this plan, allocated once on the first hit
	// (each contracted task sits in at most one layer, and a layer has at
	// most one group per task, so g.Len() bounds both). Windows hold their
	// own references, so an off-slab growth would merely cost an extra
	// allocation, never correctness.
	idSlab  []graph.TaskID
	grpSlab [][]graph.TaskID
}

// reuse is the core.Scheduler.Reuse hook: fingerprint the layer, adopt the
// remembered schedule on a hit, fall through to the search on a miss. The
// scheduler calls it on the calling goroutine in layer order, so appending
// to fps needs no locking.
func (st *incrementalState) reuse(g *graph.Graph, _ int, layer graph.Layer) *core.LayerSchedule {
	fp := LayerFingerprint(g, layer)
	st.fps = append(st.fps, fp)
	tpl := st.family.lookup(fp)
	if tpl == nil || tpl.width != len(layer) {
		st.patched++
		return nil
	}
	st.reused++
	if st.idSlab == nil {
		st.idSlab = make([]graph.TaskID, 0, g.Len())
		st.grpSlab = make([][]graph.TaskID, 0, g.Len())
	}
	idStart := len(st.idSlab)
	st.idSlab = append(st.idSlab, layer...)
	backing := st.idSlab[idStart:len(st.idSlab):len(st.idSlab)]
	grpStart := len(st.grpSlab)
	for range tpl.groups {
		st.grpSlab = append(st.grpSlab, nil)
	}
	groups := st.grpSlab[grpStart:len(st.grpSlab):len(st.grpSlab)]
	off := 0
	for gi, ps := range tpl.groups {
		grp := backing[off : off+len(ps) : off+len(ps)]
		for j, p := range ps {
			grp[j] = layer[p]
		}
		groups[gi] = grp
		off += len(ps)
	}
	return &core.LayerSchedule{Layer: layer, Groups: groups, Sizes: tpl.sizes, Time: tpl.time}
}

// record remembers the (post-adjustment) schedule of every freshly
// searched layer, converting task ids to layer positions. Layer task lists
// are in ascending id order, so the position of an id is its binary-search
// index.
func (st *incrementalState) record(layers []*core.LayerSchedule) {
	for li, ls := range layers {
		if li >= len(st.fps) {
			return // defensive: hook not consulted for this layer
		}
		fp := st.fps[li]
		if st.family.lookup(fp) != nil {
			continue
		}
		tpl := &layerTemplate{
			width:  len(ls.Layer),
			groups: make([][]int32, len(ls.Groups)),
			sizes:  ls.Sizes,
			time:   ls.Time,
		}
		slab := make([]int32, 0, len(ls.Layer))
		for gi, tasks := range ls.Groups {
			start := len(slab)
			for _, id := range tasks {
				slab = append(slab, int32(positionOf(ls.Layer, id)))
			}
			tpl.groups[gi] = slab[start:len(slab):len(slab)]
		}
		st.family.remember(fp, tpl)
	}
}

// positionOf binary-searches the ascending layer task list for id.
func positionOf(layer graph.Layer, id graph.TaskID) int {
	lo, hi := 0, len(layer)
	for lo < hi {
		mid := (lo + hi) / 2
		if layer[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// familyKey folds every Key field except the graph fingerprint into the
// 64-bit family identifier: requests in one family differ only in their
// graphs, which is exactly the precondition for layer-granular reuse.
func (k Key) familyKey() uint64 {
	g := k
	g.Graph = 0
	return g.hash()
}
