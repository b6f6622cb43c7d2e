package runtime

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mtask/internal/core"
	"mtask/internal/fault"
	"mtask/internal/graph"
)

// collTally counts collective calls by communicator kind and operation.
type collTally struct {
	n [numCommKinds][numOps]atomic.Int64
}

// tallyBody issues a collective sequence fixed by the task's name on its
// group — barriers, a reduction, sometimes an allgather or a broadcast,
// sometimes a split into two orthogonal children that each run a barrier
// and a redistribution — and tallies every call made on a rank 0, the
// count the Stats must read. The first attempt of the task named failing
// fails on group rank 0 after all its collectives, so that attempt's
// calls count too.
func tallyBody(tally *collTally, failing string) func(*graph.Task) TaskFunc {
	var failed atomic.Bool
	return func(task *graph.Task) TaskFunc {
		k := 0
		for _, ch := range task.Name {
			k += int(ch)
		}
		return func(tc *TaskCtx) error {
			g := tc.Group
			note := func(c *Comm, op Op) {
				if c.Rank() == 0 {
					tally.n[c.Kind()][op].Add(1)
				}
			}
			for i := 0; i <= k%3; i++ {
				note(g, OpBarrier)
				g.Barrier()
			}
			note(g, OpReduce)
			g.AllreduceSum(1)
			if k%2 == 0 {
				note(g, OpAllgather)
				g.Allgather([]float64{float64(g.Rank())})
			}
			if k%4 == 1 {
				note(g, OpBcast)
				g.Bcast(0, []float64{1, 2})
			}
			if k%5 < 2 {
				o := g.Split(g.Rank()%2, g.Rank(), Orthogonal)
				note(o, OpBarrier)
				o.Barrier()
				note(o, OpRedist)
				o.AllgatherAsInto([]float64{1}, nil, OpRedist)
			}
			if task.Name == failing && g.Rank() == 0 && failed.CompareAndSwap(false, true) {
				return errors.New("scripted failure after the collectives")
			}
			return nil
		}
	}
}

func TestExecuteCtxCountsCollectivesExactly(t *testing.T) {
	// Table 1's counts through the executor: every collective a body
	// issues on a communicator's rank 0 is counted once in World.Stats —
	// in both modes, flat and hierarchical (where the inner
	// dispatchers count and fold too), without a deadline and under
	// DefaultPolicy's (every share on its own goroutine), with one task
	// failing once after its collectives and retried.
	rng := rand.New(rand.NewSource(42))
	const P = 8
	flat := randomExecSchedule(t, randomExecDAG(rng), P)
	mid := flat.Layers[len(flat.Layers)/2]
	flatFailing := flat.Source.Task(flat.SourceTasks(mid.Layer[0])[0]).Name

	inner := randomExecDAG(rng)
	top := graph.New("top")
	init := top.AddBasic("init", 1e6)
	loop := top.AddTask(&graph.Task{Name: "while", Kind: graph.KindComposed, Sub: inner, Work: inner.TotalWork()})
	side := top.AddBasic("side", 2e6)
	top.MustEdge(init, loop, 8)
	top.MustEdge(init, side, 8)
	hs := scheduleHierarchical(t, top, P)

	retry := fault.Policy{MaxRetries: 1}
	deadline := fault.DefaultPolicy()
	deadline.BaseBackoff = 50 * time.Microsecond
	for _, pc := range []struct {
		name string
		pol  fault.Policy
	}{{"no deadline", retry}, {"default policy", deadline}} {
		for _, mode := range execModes {
			for _, hier := range []bool{false, true} {
				w, _ := NewWorld(P)
				var tally collTally
				opts := append([]ExecOption{WithPolicy(pc.pol)}, mode.opts...)
				var rep *Report
				var err error
				if hier {
					rep, err = ExecuteHierarchicalCtx(context.Background(), w, hs, tallyBody(&tally, "t00"), trips(2), opts...)
				} else {
					rep, err = ExecuteCtx(context.Background(), w, flat, tallyBody(&tally, flatFailing), opts...)
				}
				if err != nil {
					t.Fatalf("%s, %s, hierarchical %v: %v\n%s", pc.name, mode.name, hier, err, rep)
				}
				if rep.Retries != 1 {
					t.Fatalf("%s, %s, hierarchical %v: %d retries, want the one scripted", pc.name, mode.name, hier, rep.Retries)
				}
				total := 0
				for k := range tally.n {
					for o := range tally.n[k] {
						want := int(tally.n[k][o].Load())
						total += want
						if got := w.Stats.Count(CommKind(k), Op(o)); got != want {
							t.Fatalf("%s, %s, hierarchical %v: Stats counts %d %v %vs, the bodies issued %d",
								pc.name, mode.name, hier, got, CommKind(k), Op(o), want)
						}
					}
				}
				if got := w.Stats.Total(); got != total || total == 0 {
					t.Fatalf("%s, %s, hierarchical %v: Stats total %d, the bodies issued %d", pc.name, mode.name, hier, got, total)
				}
			}
		}
	}
}

// reuseSchedule is a schedule on 8 ranks whose layers alternate between
// the groups [0,4), [4,8) and [0,2), [2,4), [4,8); every task depends on
// every task of the layer before. Rank 4 leads every layer on one
// interval, rank 0 alternates between two and rank 2 leads every other
// layer, so leaders both reuse and reset their group communicators.
func reuseSchedule(layers int) *core.Schedule {
	g := graph.New("reuse")
	sched := &core.Schedule{P: 8}
	var prev []graph.TaskID
	for li := 0; li < layers; li++ {
		sizes := []int{4, 4}
		if li%2 == 1 {
			sizes = []int{2, 2, 4}
		}
		ls := &core.LayerSchedule{Sizes: sizes}
		var ids []graph.TaskID
		for gi := range sizes {
			id := g.AddBasic("L"+strconv.Itoa(li)+"."+strconv.Itoa(gi), 1)
			for _, p := range prev {
				g.MustEdge(p, id, 1)
			}
			ls.Layer = append(ls.Layer, id)
			ls.Groups = append(ls.Groups, []graph.TaskID{id})
			ids = append(ids, id)
		}
		prev = ids
		sched.Layers = append(sched.Layers, ls)
	}
	sched.Source = g
	sched.Graph = g
	return sched
}

// reuseBody runs a different collective sequence in consecutive layers —
// a reduction and an allgather; a broadcast from the last rank and a max;
// a split into two orthogonal children, their allgather and sum, then a
// group barrier and an opaque exchange; an in-place broadcast and
// allgather and a barrier — and records every rank's result. The first
// attempt of the task named failing fails on its last rank between the
// children's collectives and the group barrier, aborting the group and
// its children with every other rank blocked.
func reuseBody(out *sync.Map, failing string) func(*graph.Task) TaskFunc {
	var failed atomic.Bool
	return func(task *graph.Task) TaskFunc {
		name := task.Name
		seed := 0.0
		for i, ch := range name {
			seed += float64(ch) * float64(i+1)
		}
		return func(tc *TaskCtx) error {
			g := tc.Group
			r := g.Rank()
			x := math.Sin(seed*0.01 + 1.7*float64(r))
			switch tc.Layer % 4 {
			case 0:
				s := g.AllreduceSum(x)
				for _, v := range g.Allgather([]float64{x, s}) {
					x = x*1.0000001 + math.Cos(v)
				}
			case 1:
				v := g.Bcast(g.Size()-1, []float64{math.Sin(x), math.Cos(x)})
				x = g.AllreduceMax(x + v[0]*v[1])
			case 2:
				o := g.Split(r%2, -r, Orthogonal)
				for _, v := range o.AllgatherInto([]float64{math.Sin(x)}, nil) {
					x = x*0.75 + v
				}
				x += o.AllreduceSum(x)
				if name == failing && r == g.Size()-1 && failed.CompareAndSwap(false, true) {
					return errors.New("scripted failure between the children's collectives and the group's")
				}
				g.Barrier()
				for _, v := range g.ExchangeAny(x) {
					x = x*0.5 + v.(float64)
				}
			case 3:
				buf := []float64{x, 2 * x}
				g.BcastInto(0, buf)
				x = buf[0] - buf[1]*x
				x += g.AllgatherInto([]float64{x}, nil)[g.Size()-1]
				g.Barrier()
			}
			out.Store(name+"@"+strconv.Itoa(r), x)
			return nil
		}
	}
}

func TestGroupCommReuseMatchesReference(t *testing.T) {
	// Leaders reuse the group communicator of their last successful
	// attempt on the same interval and reset it on another. Consecutive
	// tasks on one interval run different collective sequences, one of
	// them through split-off children; an injected error aborts one
	// attempt before its body runs and a body failure aborts another
	// between collectives, and both retries run on the same interval.
	// Every rank's outputs must equal the sequential reference's bitwise,
	// in both modes, with and without a policy deadline. Meant to
	// run under -race as well.
	const layers = 24
	sched := reuseSchedule(layers)
	const failing = "L6.1" // [4,8), a split layer
	inj := &fault.Injector{Script: []fault.Script{{Task: "L5.0", Attempt: 1, Rank: 1, Kind: fault.Error}}}
	deadline := fault.DefaultPolicy()
	deadline.BaseBackoff = 50 * time.Microsecond
	for _, pc := range []struct {
		name string
		pol  fault.Policy
	}{{"no deadline", fault.Policy{MaxRetries: 1}}, {"default policy", deadline}} {
		faults := []ExecOption{WithPolicy(pc.pol), WithInjector(inj)}
		var refOut sync.Map
		rrep := runSequential(t, sched, 0, layers, reuseBody(&refOut, failing), faults...)
		ref := recordings(&refOut)
		if len(ref) != layers*8 || rrep.Retries != 2 {
			t.Fatalf("%s: reference recorded %d rank results with %d retries, want %d and 2", pc.name, len(ref), rrep.Retries, layers*8)
		}
		for _, mode := range execModes {
			w, _ := NewWorld(8)
			var out sync.Map
			rep, err := ExecuteCtx(context.Background(), w, sched, reuseBody(&out, failing), append(faults, mode.opts...)...)
			if err != nil {
				t.Fatalf("%s, %s: %v\n%s", pc.name, mode.name, err, rep)
			}
			compareBitwise(t, ref, recordings(&out))
			checkExecution(t, sched, rep, mode.layered)
			for _, name := range []string{"L5.0", failing} {
				if tr := rep.Task(name); tr.Attempts != 2 || tr.Retries != 1 {
					t.Fatalf("%s, %s: %s history %+v, want 2 attempts and 1 retry", pc.name, mode.name, name, tr)
				}
			}
		}
	}
}
