package runtime

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"mtask/internal/arch"
	"mtask/internal/core"
	"mtask/internal/cost"
	"mtask/internal/graph"
)

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Fatal("world of 0 cores accepted")
	}
	w, err := NewWorld(4)
	if err != nil || w.P != 4 {
		t.Fatalf("NewWorld(4): %v %v", w, err)
	}
}

func TestBlockRange(t *testing.T) {
	// 10 items over 4 ranks: 3,3,2,2.
	wants := [][2]int{{0, 3}, {3, 6}, {6, 8}, {8, 10}}
	for r, want := range wants {
		lo, hi := BlockRange(10, 4, r)
		if lo != want[0] || hi != want[1] {
			t.Fatalf("BlockRange(10,4,%d) = %d..%d, want %v", r, lo, hi, want)
		}
	}
	// Coverage and disjointness for many shapes.
	for n := 0; n < 20; n++ {
		for size := 1; size < 7; size++ {
			prev := 0
			for r := 0; r < size; r++ {
				lo, hi := BlockRange(n, size, r)
				if lo != prev || hi < lo {
					t.Fatalf("BlockRange(%d,%d,%d) = %d..%d, prev end %d", n, size, r, lo, hi, prev)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("BlockRange(%d,%d) covers %d items", n, size, prev)
			}
		}
	}
}

func TestBarrierSynchronises(t *testing.T) {
	w, _ := NewWorld(8)
	var phase atomic.Int64
	w.Run(func(c *Comm) {
		for round := 0; round < 10; round++ {
			phase.Add(1)
			c.Barrier()
			if got := phase.Load(); got != int64(8*(round+1)) {
				t.Errorf("round %d: phase = %d, want %d", round, got, 8*(round+1))
			}
			c.Barrier()
		}
	})
}

func TestBcast(t *testing.T) {
	w, _ := NewWorld(6)
	w.Run(func(c *Comm) {
		var data []float64
		if c.Rank() == 2 {
			data = []float64{1, 2, 3}
		}
		got := c.Bcast(2, data)
		for i, v := range []float64{1, 2, 3} {
			if got[i] != v {
				t.Errorf("rank %d: bcast[%d] = %g", c.Rank(), i, got[i])
			}
		}
		// Non-roots get their own copy.
		if c.Rank() != 2 {
			got[0] = 99
		}
		c.Barrier()
		got2 := c.Bcast(2, data)
		if got2[0] != 1 {
			t.Errorf("rank %d: bcast buffer aliased: %g", c.Rank(), got2[0])
		}
	})
	if n := w.Stats.Count(Global, OpBcast); n != 2 {
		t.Fatalf("bcast count = %d, want 2", n)
	}
}

func TestAllgather(t *testing.T) {
	w, _ := NewWorld(5)
	w.Run(func(c *Comm) {
		contrib := []float64{float64(c.Rank()), float64(c.Rank()) + 0.5}
		got := c.Allgather(contrib)
		if len(got) != 10 {
			t.Errorf("rank %d: allgather len %d", c.Rank(), len(got))
			return
		}
		for r := 0; r < 5; r++ {
			if got[2*r] != float64(r) || got[2*r+1] != float64(r)+0.5 {
				t.Errorf("rank %d: wrong gathered block %d: %v", c.Rank(), r, got[2*r:2*r+2])
			}
		}
	})
	if n := w.Stats.Count(Global, OpAllgather); n != 1 {
		t.Fatalf("allgather count = %d, want 1", n)
	}
}

func TestAllgatherVariableSizes(t *testing.T) {
	w, _ := NewWorld(4)
	w.Run(func(c *Comm) {
		contrib := make([]float64, c.Rank()) // ranks contribute 0..3 items
		for i := range contrib {
			contrib[i] = float64(c.Rank()*10 + i)
		}
		got := c.Allgather(contrib)
		want := []float64{10, 20, 21, 30, 31, 32}
		if len(got) != len(want) {
			t.Errorf("rank %d: len %d want %d", c.Rank(), len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("rank %d: got[%d]=%g want %g", c.Rank(), i, got[i], want[i])
			}
		}
	})
}

func TestAllreduce(t *testing.T) {
	w, _ := NewWorld(7)
	w.Run(func(c *Comm) {
		if got := c.AllreduceMax(float64(c.Rank())); got != 6 {
			t.Errorf("rank %d: max = %g", c.Rank(), got)
		}
		if got := c.AllreduceSum(1); got != 7 {
			t.Errorf("rank %d: sum = %g", c.Rank(), got)
		}
	})
}

func TestSplitGroups(t *testing.T) {
	w, _ := NewWorld(8)
	w.Run(func(c *Comm) {
		color := c.Rank() / 4
		g := c.Split(color, c.Rank(), Group)
		if g.Size() != 4 {
			t.Errorf("rank %d: group size %d", c.Rank(), g.Size())
		}
		if g.Kind() != Group {
			t.Errorf("wrong kind %v", g.Kind())
		}
		if want := c.Rank() % 4; g.Rank() != want {
			t.Errorf("rank %d: group rank %d, want %d", c.Rank(), g.Rank(), want)
		}
		if g.WorldRank() != c.Rank() {
			t.Errorf("world rank mismatch: %d vs %d", g.WorldRank(), c.Rank())
		}
		// Group collectives only see group members.
		sum := g.AllreduceSum(float64(c.Rank()))
		want := 0.0
		for r := color * 4; r < (color+1)*4; r++ {
			want += float64(r)
		}
		if sum != want {
			t.Errorf("rank %d: group sum %g, want %g", c.Rank(), sum, want)
		}
	})
	if n := w.Stats.Count(Group, OpReduce); n != 2 {
		t.Fatalf("group reduce count = %d, want 2 (one per group)", n)
	}
}

func TestSplitOrthogonal(t *testing.T) {
	// 2 groups of 4; orthogonal sets connect equal positions.
	w, _ := NewWorld(8)
	w.Run(func(c *Comm) {
		pos := c.Rank() % 4
		o := c.Split(pos, c.Rank(), Orthogonal)
		if o.Size() != 2 {
			t.Errorf("orthogonal size %d", o.Size())
		}
		got := o.Allgather([]float64{float64(c.Rank())})
		if len(got) != 2 || got[0] != float64(pos) || got[1] != float64(pos+4) {
			t.Errorf("rank %d: orthogonal gather %v", c.Rank(), got)
		}
	})
	if n := w.Stats.Count(Orthogonal, OpAllgather); n != 4 {
		t.Fatalf("orthogonal allgather count = %d, want 4", n)
	}
}

func TestRepeatedSplits(t *testing.T) {
	// Split the same communicator repeatedly (as the executor does per
	// layer); generations must not interfere.
	w, _ := NewWorld(6)
	w.Run(func(c *Comm) {
		for round := 0; round < 5; round++ {
			color := (c.Rank() + round) % 3
			g := c.Split(color, c.Rank(), Group)
			if g.Size() != 2 {
				t.Errorf("round %d rank %d: size %d", round, c.Rank(), g.Size())
			}
			g.Barrier()
		}
	})
}

func TestStats(t *testing.T) {
	var s Stats
	s.add(Global, OpBcast)
	s.add(Global, OpBcast)
	s.add(Group, OpAllgather)
	if s.Count(Global, OpBcast) != 2 || s.Count(Group, OpAllgather) != 1 {
		t.Fatal("wrong counts")
	}
	if s.Total() != 3 {
		t.Fatalf("total = %d", s.Total())
	}
	s.Reset()
	if s.Total() != 0 {
		t.Fatal("reset failed")
	}
}

func TestExecuteSchedule(t *testing.T) {
	// Build a diamond graph, schedule it, and execute it: each task
	// sums its group's contributions into a shared result; verify every
	// task ran exactly once with the scheduled group size.
	g := graph.New("diamond")
	a := g.AddTask(&graph.Task{Name: "a", Kind: graph.KindBasic, Work: 1e6})
	b := g.AddTask(&graph.Task{Name: "b", Kind: graph.KindBasic, Work: 1e6, CommBytes: 1 << 22, CommCount: 16})
	c := g.AddTask(&graph.Task{Name: "c", Kind: graph.KindBasic, Work: 1e6, CommBytes: 1 << 22, CommCount: 16})
	d := g.AddTask(&graph.Task{Name: "d", Kind: graph.KindBasic, Work: 1e6})
	g.MustEdge(a, b, 8)
	g.MustEdge(a, c, 8)
	g.MustEdge(b, d, 8)
	g.MustEdge(c, d, 8)

	model := &cost.Model{Machine: arch.CHiC().Subset(2)}
	sch := &core.Scheduler{Model: model}
	sched, err := sch.Schedule(g, 8)
	if err != nil {
		t.Fatal(err)
	}

	w, _ := NewWorld(8)
	var ran [4]atomic.Int64
	var sizes [4]atomic.Int64
	_, err = ExecuteCtx(context.Background(), w, sched, func(task *graph.Task) TaskFunc {
		return func(ctx *TaskCtx) error {
			if ctx.Group.Rank() == 0 {
				ran[task.ID].Add(1)
				sizes[task.ID].Store(int64(ctx.Group.Size()))
			}
			ctx.Group.Barrier()
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 4; id++ {
		if got := ran[id].Load(); got != 1 {
			t.Fatalf("task %d ran %d times", id, got)
		}
	}
	// b and c are independent and comm-heavy: they should have run on
	// disjoint subgroups (4+4), a and d data-parallel on all 8.
	if sizes[a].Load() != 8 || sizes[d].Load() != 8 {
		t.Fatalf("a/d group sizes: %d %d, want 8", sizes[a].Load(), sizes[d].Load())
	}
	if sizes[b].Load()+sizes[c].Load() != 8 {
		t.Fatalf("b/c group sizes: %d %d, want sum 8", sizes[b].Load(), sizes[c].Load())
	}
}

func TestExecuteMissingBody(t *testing.T) {
	g := graph.New("g")
	g.AddTask(&graph.Task{Name: "mystery", Kind: graph.KindBasic, Work: 1})
	model := &cost.Model{Machine: arch.CHiC().Subset(1)}
	sch := &core.Scheduler{Model: model}
	sched, err := sch.Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := NewWorld(4)
	_, err = ExecuteCtx(context.Background(), w, sched, func(task *graph.Task) TaskFunc { return nil })
	if err == nil {
		t.Fatal("missing body not reported")
	}
}

func TestExecuteTaskError(t *testing.T) {
	g := graph.New("g")
	g.AddTask(&graph.Task{Name: "boom", Kind: graph.KindBasic, Work: 1})
	model := &cost.Model{Machine: arch.CHiC().Subset(1)}
	sch := &core.Scheduler{Model: model}
	sched, _ := sch.Schedule(g, 2)
	w, _ := NewWorld(2)
	_, err := ExecuteCtx(context.Background(), w, sched, func(task *graph.Task) TaskFunc {
		return func(ctx *TaskCtx) error { return fmt.Errorf("boom") }
	})
	if err == nil {
		t.Fatal("task error swallowed")
	}
}

func TestExecuteWorldSizeMismatch(t *testing.T) {
	g := graph.New("g")
	g.AddTask(&graph.Task{Name: "t", Kind: graph.KindBasic, Work: 1})
	model := &cost.Model{Machine: arch.CHiC().Subset(1)}
	sch := &core.Scheduler{Model: model}
	sched, _ := sch.Schedule(g, 4)
	w, _ := NewWorld(2)
	if _, err := ExecuteCtx(context.Background(), w, sched, func(task *graph.Task) TaskFunc { return nil }); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestParallelSumMatchesSequential(t *testing.T) {
	// A small end-to-end SPMD computation: distributed dot product.
	const n = 1000
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%17) * 0.25
	}
	var seq float64
	for _, v := range x {
		seq += v * v
	}
	w, _ := NewWorld(8)
	var results [8]float64
	w.Run(func(c *Comm) {
		lo, hi := BlockRange(n, c.Size(), c.Rank())
		var local float64
		for _, v := range x[lo:hi] {
			local += v * v
		}
		results[c.Rank()] = c.AllreduceSum(local)
	})
	for r, got := range results {
		if math.Abs(got-seq) > 1e-9 {
			t.Fatalf("rank %d: parallel sum %g != sequential %g", r, got, seq)
		}
	}
}

func TestExecuteHierarchical(t *testing.T) {
	// Upper level: init -> while(body); body = two independent tasks +
	// a join. The while loop runs 3 iterations.
	body := graph.New("body")
	a := body.AddTask(&graph.Task{Name: "a", Kind: graph.KindBasic, Work: 1e6, CommBytes: 1 << 20, CommCount: 8})
	b2 := body.AddTask(&graph.Task{Name: "b", Kind: graph.KindBasic, Work: 1e6, CommBytes: 1 << 20, CommCount: 8})
	j := body.AddTask(&graph.Task{Name: "join", Kind: graph.KindBasic, Work: 1e6})
	body.MustEdge(a, j, 8)
	body.MustEdge(b2, j, 8)
	body.AddStartStop()

	top := graph.New("top")
	top.AddTask(&graph.Task{Name: "init", Kind: graph.KindBasic, Work: 1e6})
	top.AddTask(&graph.Task{Name: "while", Kind: graph.KindComposed, Work: body.TotalWork(), Sub: body})
	top.MustEdge(0, 1, 8)
	top.AddStartStop()

	model := &cost.Model{Machine: arch.CHiC().Subset(2)}
	hs, err := (&core.Scheduler{Model: model}).ScheduleHierarchical(top, 8)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := NewWorld(8)
	var counts sync.Map
	bodyFn := func(task *graph.Task) TaskFunc {
		return func(ctx *TaskCtx) error {
			if ctx.Group.Rank() == 0 {
				v, _ := counts.LoadOrStore(task.Name, new(atomic.Int64))
				v.(*atomic.Int64).Add(1)
			}
			ctx.Group.Barrier()
			return nil
		}
	}
	const trips = 3
	rep, err := ExecuteHierarchicalCtx(context.Background(), w, hs, bodyFn, func(task *graph.Task, done int) bool {
		return done < trips
	})
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) int64 {
		v, ok := counts.Load(name)
		if !ok {
			return 0
		}
		return v.(*atomic.Int64).Load()
	}
	if get("init") != 1 {
		t.Fatalf("init ran %d times", get("init"))
	}
	for _, name := range []string{"a", "b", "join"} {
		if get(name) != trips {
			t.Fatalf("%s ran %d times, want %d", name, get(name), trips)
		}
		// Every trip of every inner task leaves its own namespaced span.
		for trip := 0; trip < trips; trip++ {
			if got := rep.Task(fmt.Sprintf("while[%d]/%s", trip, name)).Attempts; got != 1 {
				t.Fatalf("while[%d]/%s: %d attempts, want 1\n%s", trip, name, got, rep)
			}
		}
	}
}

func TestExecuteHierarchicalBodyError(t *testing.T) {
	body := graph.New("body")
	body.AddTask(&graph.Task{Name: "boom", Kind: graph.KindBasic, Work: 1})
	body.AddStartStop()
	top := graph.New("top")
	top.AddTask(&graph.Task{Name: "loop", Kind: graph.KindComposed, Work: 1, Sub: body})
	top.AddStartStop()
	model := &cost.Model{Machine: arch.CHiC().Subset(1)}
	hs, err := (&core.Scheduler{Model: model}).ScheduleHierarchical(top, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := NewWorld(4)
	_, err = ExecuteHierarchicalCtx(context.Background(), w, hs, func(task *graph.Task) TaskFunc {
		return func(ctx *TaskCtx) error { return fmt.Errorf("boom") }
	}, func(task *graph.Task, done int) bool { return done < 2 })
	if err == nil {
		t.Fatal("body error swallowed")
	}
}
