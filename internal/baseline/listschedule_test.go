package baseline

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mtask/internal/arch"
	"mtask/internal/cost"
	"mtask/internal/graph"
)

// listScheduleRef is the reference list scheduler: it re-sorts all P
// cores by (free time, index) for every task it places. ListSchedule
// keeps the cores in a heap instead and must agree with it exactly.
func listScheduleRef(m *cost.Model, g *graph.Graph, alloc []int, P int) (*Gantt, error) {
	n := g.Len()
	if len(alloc) != n {
		return nil, fmt.Errorf("baseline: allocation has %d entries for %d tasks", len(alloc), n)
	}
	if _, err := g.TopoOrder(); err != nil {
		return nil, err
	}
	bl := bottomLevels(m, g, alloc)

	sched := &Gantt{Graph: g, P: P, Entries: make([]Entry, n)}
	coreFree := make([]float64, P)
	indeg := make([]int, n)
	for id := 0; id < n; id++ {
		indeg[id] = len(g.Pred(graph.TaskID(id)))
	}
	ready := make([]graph.TaskID, 0, n)
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			ready = append(ready, graph.TaskID(id))
		}
	}
	scheduled := 0
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool {
			if bl[ready[i]] != bl[ready[j]] {
				return bl[ready[i]] > bl[ready[j]]
			}
			return ready[i] < ready[j]
		})
		id := ready[0]
		ready = ready[1:]
		t := g.Task(id)

		var dataReady float64
		for _, p := range g.Pred(id) {
			f := sched.Entries[p].Finish
			if bytes := g.EdgeBytes(p, id); bytes > 0 {
				f += m.SymbolicRedistribute(alloc[p], alloc[id], bytes)
			}
			if f > dataReady {
				dataReady = f
			}
		}

		var cores []int
		start := dataReady
		if !markerTask(t) {
			a := clampAlloc(t, alloc[id], P)
			idx := make([]int, P)
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(i, j int) bool {
				if coreFree[idx[i]] != coreFree[idx[j]] {
					return coreFree[idx[i]] < coreFree[idx[j]]
				}
				return idx[i] < idx[j]
			})
			cores = idx[:a]
			for _, c := range cores {
				if coreFree[c] > start {
					start = coreFree[c]
				}
			}
		}
		dur := 0.0
		if !markerTask(t) {
			dur = m.SymbolicTaskTime(t, len(cores))
		}
		finish := start + dur
		sortedCores := append([]int(nil), cores...)
		sort.Ints(sortedCores)
		sched.Entries[id] = Entry{Task: id, Start: start, Finish: finish, Cores: sortedCores}
		for _, c := range cores {
			coreFree[c] = finish
		}
		if finish > sched.Makespan {
			sched.Makespan = finish
		}
		scheduled++
		for _, s := range g.Succ(id) {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if scheduled != n {
		return nil, fmt.Errorf("baseline: scheduled %d of %d tasks", scheduled, n)
	}
	return sched, nil
}

// randomBaselineDAG draws a DAG whose task works and communication
// volumes come from small sets, so that many cores free up at the same
// time and the (free time, index) tie-break decides the placement.
func randomBaselineDAG(rng *rand.Rand) *graph.Graph {
	g := graph.New("random")
	n := 2 + rng.Intn(30)
	works := []float64{1e6, 2e6, 4e6, 8e7}
	for i := 0; i < n; i++ {
		t := &graph.Task{Kind: graph.KindBasic, Work: works[rng.Intn(len(works))]}
		if rng.Float64() < 0.5 {
			t.CommBytes, t.CommCount = 1<<(10+rng.Intn(10)), 1+rng.Intn(3)
		}
		if rng.Float64() < 0.2 {
			t.MaxWidth = 1 + rng.Intn(8)
		}
		id := g.AddTask(t)
		for j := 0; j < int(id); j++ {
			if rng.Float64() < 0.15 {
				g.MustEdge(graph.TaskID(j), id, rng.Intn(3)*(1<<16))
			}
		}
	}
	g.AddStartStop()
	return g
}

func equalGantts(a, b *Gantt) error {
	if a.Makespan != b.Makespan {
		return fmt.Errorf("makespan %v vs %v", a.Makespan, b.Makespan)
	}
	for i := range a.Entries {
		x, y := a.Entries[i], b.Entries[i]
		if x.Task != y.Task || x.Start != y.Start || x.Finish != y.Finish || !slices.Equal(x.Cores, y.Cores) {
			return fmt.Errorf("entry %d: %+v vs %+v", i, x, y)
		}
	}
	return nil
}

// TestListScheduleMatchesReference pins the heap-based ListSchedule to
// the sorting reference on random DAGs, allocations and core counts,
// entry for entry, and checks that CPA and CPR reach the same makespans
// when they run on either scheduler.
func TestListScheduleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	m := &cost.Model{Machine: arch.CHiC().Subset(4)}
	for trial := 0; trial < 200; trial++ {
		g := randomBaselineDAG(rng)
		P := 1 + rng.Intn(24)
		alloc := make([]int, g.Len())
		for i := range alloc {
			alloc[i] = rng.Intn(P + 3) // 0 and > P exercise clampAlloc
		}
		got, err := ListSchedule(m, g, alloc, P)
		if err != nil {
			t.Fatal(err)
		}
		want, err := listScheduleRef(m, g, alloc, P)
		if err != nil {
			t.Fatal(err)
		}
		if err := equalGantts(got, want); err != nil {
			t.Fatalf("trial %d (P=%d): %v", trial, P, err)
		}
		if trial%10 != 0 {
			continue
		}
		for name, run := range map[string]func() (*Gantt, error){
			"CPA": func() (*Gantt, error) { return CPA(m, g, P) },
			"CPR": func() (*Gantt, error) { return CPRLimited(m, g, P, 200) },
		} {
			heapRun, err := run()
			if err != nil {
				t.Fatal(err)
			}
			listSchedule = listScheduleRef
			refRun, err := run()
			listSchedule = ListSchedule
			if err != nil {
				t.Fatal(err)
			}
			if err := equalGantts(heapRun, refRun); err != nil {
				t.Fatalf("trial %d %s (P=%d): %v", trial, name, P, err)
			}
		}
	}
}
