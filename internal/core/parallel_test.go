package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mtask/internal/arch"
	"mtask/internal/cost"
	"mtask/internal/graph"
	"mtask/internal/obs"
)

// equalSchedules compares every observable field of two schedules: layer
// structure, group task lists, group sizes and the predicted times down to
// the last bit.
func equalSchedules(t *testing.T, trial int, seq, par *Schedule) {
	t.Helper()
	if seq.Time != par.Time {
		t.Fatalf("trial %d: makespan differs: reference %v scheduler %v", trial, seq.Time, par.Time)
	}
	if seq.P != par.P || len(seq.Layers) != len(par.Layers) {
		t.Fatalf("trial %d: shape differs: %d cores/%d layers vs %d cores/%d layers",
			trial, seq.P, len(seq.Layers), par.P, len(par.Layers))
	}
	for li := range seq.Layers {
		a, b := seq.Layers[li], par.Layers[li]
		if a.Time != b.Time {
			t.Fatalf("trial %d: layer %d time differs: %v vs %v", trial, li, a.Time, b.Time)
		}
		if !reflect.DeepEqual(a.Groups, b.Groups) {
			t.Fatalf("trial %d: layer %d groups differ:\n%v\n%v", trial, li, a.Groups, b.Groups)
		}
		if !reflect.DeepEqual(a.Sizes, b.Sizes) {
			t.Fatalf("trial %d: layer %d sizes differ: %v vs %v", trial, li, a.Sizes, b.Sizes)
		}
	}
}

// referenceSchedule is the paper's strictly sequential Algorithm 1, kept as
// the oracle of the scheduler's search: layer by layer, it materializes
// every group-count candidate with referenceAssign, keeps the strictly
// fastest (ties keep the smaller group count) and applies the group
// adjustment. It shares no search code with the scheduler apart from the
// LPT ordering and heap helpers.
func referenceSchedule(s *Scheduler, g *graph.Graph, P int) *Schedule {
	sched := &Schedule{Source: g, P: P}
	if s.DisableChainContraction {
		sched.Graph = g
		sched.NodeOf = make([]graph.TaskID, g.Len())
		for i := range sched.NodeOf {
			sched.NodeOf[i] = graph.TaskID(i)
		}
	} else {
		res := graph.ContractChains(g)
		sched.Graph, sched.NodeOf = res.Graph, res.NodeOf
	}
	for _, layer := range graph.Layers(sched.Graph) {
		lo, hi := s.groupBounds(layer, P)
		var best *LayerSchedule
		for gc := lo; gc <= hi; gc++ {
			if ls := referenceAssign(s, sched.Graph, layer, P, gc); best == nil || ls.Time < best.Time {
				best = ls
			}
		}
		ls := s.adjusted(sched.Graph, best, P)
		sched.Layers = append(sched.Layers, ls)
		sched.Time += ls.Time
	}
	return sched
}

// referenceAssign partitions the P symbolic cores into gCount equal subsets
// and assigns the layer's tasks greedily in decreasing order of execution
// time on the smallest subset (LPT) to the subset with the smallest
// accumulated load, or round-robin if the ablation switch is set.
func referenceAssign(s *Scheduler, g *graph.Graph, layer graph.Layer, P, gCount int) *LayerSchedule {
	sizes := equalSizes(P, gCount)
	tts := make([]taskTime, len(layer))
	for i, id := range layer {
		tts[i] = taskTime{id: id, t: s.Model.SymbolicTaskTime(g.Task(id), sizes[gCount-1])}
	}
	sortTaskTimes(tts)

	ls := &LayerSchedule{Layer: layer, Groups: make([][]graph.TaskID, gCount), Sizes: sizes}
	load := make([]float64, gCount)
	h := make([]int32, gCount)
	for i := range h {
		h[i] = int32(i)
	}
	for i, tt := range tts {
		gi := int(h[0])
		if s.RoundRobin {
			gi = i % gCount
		}
		ls.Groups[gi] = append(ls.Groups[gi], tt.id)
		load[gi] += s.Model.SymbolicTaskTime(g.Task(tt.id), sizes[gi])
		if !s.RoundRobin {
			siftDown(h, load, 0)
		}
	}
	for _, l := range load {
		if l > ls.Time {
			ls.Time = l
		}
	}
	return ls
}

// TestParallelSchedulerMatchesSequential is the determinism property test
// of the group-count search: on randomized DAGs, machines and worker
// counts the scheduler must produce a schedule identical to the sequential
// reference, layer assignment and makespan included. Run it under -race to
// also exercise the worker pool's shared model and search state for data
// races.
func TestParallelSchedulerMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	machines := []*arch.Machine{
		arch.CHiC().Subset(2), arch.CHiC().Subset(8),
		arch.JuRoPA().Subset(4), arch.SGIAltix().Subset(6),
	}
	for trial := 0; trial < 60; trial++ {
		g := randomDAG(rng)
		mach := machines[rng.Intn(len(machines))]
		p := mach.TotalCores()
		base := Scheduler{
			Model:             &cost.Model{Machine: mach},
			DisableAdjustment: rng.Float64() < 0.3,
			RoundRobin:        rng.Float64() < 0.2,
		}
		if rng.Float64() < 0.3 {
			base.MinGroups = 1 + rng.Intn(3)
			base.MaxGroups = base.MinGroups + rng.Intn(8)
		}
		ref := referenceSchedule(&base, g, p)

		drawn := 2 + rng.Intn(7)
		rng.Float64() // unused draw: keeps the random stream, and so every trial's DAG, fixed
		for _, workers := range []int{0, 1, drawn} {
			s := base
			s.Parallel = workers
			got, err := s.Schedule(g, p)
			if err != nil {
				t.Fatalf("trial %d, %d workers: %v", trial, workers, err)
			}
			equalSchedules(t, trial, ref, got)
		}
	}
}

// TestSearchTrace checks the search's one trace form: a single "g-search"
// span per search, one decision instant per searched layer and none for a
// reused one, and "plan.candidates" counting the (layer, g) pairs of the
// searched layers only — for every worker count.
func TestSearchTrace(t *testing.T) {
	g := epolStep(6, 1e9, 1<<20)
	m := model(4)
	P := m.Machine.TotalCores()
	ref, err := (&Scheduler{Model: m}).Schedule(g, P)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Layers) < 2 {
		t.Fatalf("want a multi-layer graph, got %d layers", len(ref.Layers))
	}
	for _, workers := range []int{1, 4} {
		rec := obs.New(1)
		var searched []int
		var wantCands int64
		s := &Scheduler{Model: m, Parallel: workers, Trace: rec,
			Reuse: func(_ *graph.Graph, li int, layer graph.Layer) *LayerSchedule {
				if li%2 == 1 {
					return ref.Layers[li]
				}
				searched = append(searched, li)
				return nil
			}}
		sched, err := s.Schedule(g, P)
		if err != nil {
			t.Fatal(err)
		}
		for _, li := range searched {
			lo, hi := s.groupBounds(sched.Layers[li].Layer, P)
			wantCands += int64(hi - lo + 1)
		}
		var spans int
		var instants []string
		for _, ev := range rec.RankEvents(obs.ControlRank) {
			switch {
			case ev.Kind == obs.KindSpan && ev.Name == "g-search":
				spans++
			case ev.Kind == obs.KindSpan:
				t.Errorf("workers=%d: unexpected span %q", workers, ev.Name)
			case ev.Kind == obs.KindInstant:
				instants = append(instants, ev.Name)
			}
		}
		if spans != 1 {
			t.Errorf("workers=%d: %d g-search spans, want 1", workers, spans)
		}
		var want []string
		for _, li := range searched {
			want = append(want, fmt.Sprintf("layer %d: %d groups", li, sched.Layers[li].NumGroups()))
		}
		if !reflect.DeepEqual(instants, want) {
			t.Errorf("workers=%d: instants %q, want %q", workers, instants, want)
		}
		if got := rec.Metrics()["plan.candidates"]; got != wantCands {
			t.Errorf("workers=%d: plan.candidates = %d, want %d", workers, got, wantCands)
		}
	}
}

// TestScheduleCtxCancellation checks that a canceled context aborts the
// search with an error wrapping ErrCanceled, with one worker and with a
// pool.
func TestScheduleCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := randomDAG(rng)
	m := model(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		s := &Scheduler{Model: m, Parallel: workers}
		_, err := s.ScheduleCtx(ctx, g, m.Machine.TotalCores())
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: got %v, want ErrCanceled", workers, err)
		}
	}
}

// TestScheduleNoCores checks the ErrNoCores sentinel on both Schedule and
// Map.
func TestScheduleNoCores(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomDAG(rng)
	m := model(2)
	if _, err := (&Scheduler{Model: m}).Schedule(g, 0); !errors.Is(err, ErrNoCores) {
		t.Fatalf("Schedule(0 cores) = %v, want ErrNoCores", err)
	}
	sched, err := (&Scheduler{Model: m}).Schedule(g, m.Machine.TotalCores())
	if err != nil {
		t.Fatal(err)
	}
	small := arch.CHiC().Subset(1)
	if _, err := Map(sched, small, Consecutive{}); !errors.Is(err, ErrNoCores) {
		t.Fatalf("Map on too-small machine = %v, want ErrNoCores", err)
	}
}

// TestGroupBounds checks that the search bounds narrow the group counts a
// schedule may use.
func TestGroupBounds(t *testing.T) {
	g := epolStep(6, 1e9, 1<<20)
	m := model(8)
	p := 32
	sched, err := (&Scheduler{Model: m, MinGroups: 2, MaxGroups: 3}).Schedule(g, p)
	if err != nil {
		t.Fatal(err)
	}
	for li, ls := range sched.Layers {
		n := ls.NumGroups()
		width := len(ls.Layer)
		wantMin := 2
		if width < wantMin {
			wantMin = width
		}
		if n < wantMin || n > 3 {
			t.Fatalf("layer %d (width %d) has %d groups, want within [%d, 3]", li, width, n, wantMin)
		}
	}
}
