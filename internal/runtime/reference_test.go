package runtime

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"mtask/internal/core"
	"mtask/internal/graph"
)

// runSequential is the reference the dispatcher is compared against: an
// interpreter that runs the scheduled tasks of layers [from, to) one at a
// time in schedule order. It shares the attempt loop and the attempt
// itself with the dispatcher — retries, panic isolation and attempt
// numbering are the injector's contract, and an attempt runs on the
// workers of its group's ranks — but none of the dispatch: no counters,
// no chains, no concurrently running tasks. Bodies see the same TaskCtx
// as under the dispatcher.
func runSequential(t *testing.T, sched *core.Schedule, from, to int, body func(t *graph.Task) TaskFunc,
	opts ...ExecOption) *Report {

	t.Helper()
	cfg := newExecConfig(opts)
	rep := NewReport()
	rep.lean = cfg.noTimeline
	rep.begin(sched.P)
	if err := sequential(sched, from, to, body, cfg, rep); err != nil {
		t.Fatalf("sequential reference failed: %v\n%s", err, rep)
	}
	rep.Layers = to - from
	rep.end()
	return rep
}

// sequential is runSequential's interpreter, reporting into rep under the
// task names of cfg's level.
func sequential(sched *core.Schedule, from, to int, body func(t *graph.Task) TaskFunc, cfg *execConfig, rep *Report) error {
	w, _ := NewWorld(sched.P)
	d, err := newDispatcher(w, sched, from, body, cfg, rep, rep.attemptCounters(cfg.prefix, sched.Source))
	if err != nil {
		return err
	}
	d.ctx = context.Background()
	defer d.fold()
	for _, id := range d.prec.Scheduled {
		td := d.prec.Tasks[id]
		if td.Layer < from || td.Layer >= to {
			continue
		}
		var followers sync.WaitGroup
		for r := td.Lo + 1; r < td.Hi; r++ {
			followers.Add(1)
			go func(wk *wfWorker) {
				defer followers.Done()
				wk.follow(td)
			}(&d.workers[r])
		}
		err, _ := d.workers[td.Lo].runScheduledTask(td)
		settled := wfDone
		if err != nil {
			settled = wfSkipped
		}
		d.state[id].Store(settled)
		for r := td.Lo + 1; r < td.Hi; r++ {
			d.wakeWorker(r)
		}
		followers.Wait()
		if err != nil {
			return err
		}
	}
	return nil
}

// referenceHierarchical is runSequential recursing into composed tasks: a
// composed task's rank 0 runs its trips one after another, each with the
// sequential interpreter on the sub-schedule under the dispatcher's inner
// task names, and its other ranks return at once.
func referenceHierarchical(t *testing.T, hs *core.HierarchicalSchedule, body func(t *graph.Task) TaskFunc,
	iterations func(t *graph.Task, done int) bool, opts ...ExecOption) *Report {

	t.Helper()
	cfg := newExecConfig(opts)
	rep := NewReport()
	rep.lean = cfg.noTimeline
	rep.begin(hs.Top.P)
	if err := sequential(hs.Top, 0, len(hs.Top.Layers), sequentialBodies(hs, body, iterations, cfg, rep), cfg, rep); err != nil {
		t.Fatalf("sequential hierarchical reference failed: %v\n%s", err, rep)
	}
	rep.Layers = len(hs.Top.Layers)
	rep.end()
	return rep
}

// sequentialBodies extends body to the composed tasks of hs for
// referenceHierarchical.
func sequentialBodies(hs *core.HierarchicalSchedule, body func(t *graph.Task) TaskFunc,
	iterations func(t *graph.Task, done int) bool, cfg *execConfig, rep *Report) func(t *graph.Task) TaskFunc {

	return func(task *graph.Task) TaskFunc {
		if task.Kind != graph.KindComposed {
			return body(task)
		}
		var sub *core.HierarchicalSchedule
		for id, s := range hs.Sub {
			if hs.Top.SourceTasks(id)[0] == task.ID {
				sub = s
			}
		}
		return func(tc *TaskCtx) error {
			if tc.Group.Rank() != 0 {
				return nil
			}
			for done := 0; iterations(task, done); done++ {
				child := *cfg
				child.prefix = fmt.Sprintf("%s%s[%d]/", cfg.prefix, task.Name, done)
				bodies := sequentialBodies(sub, body, iterations, &child, rep)
				if err := sequential(sub.Top, 0, len(sub.Top.Layers), bodies, &child, rep); err != nil {
					return err
				}
			}
			return nil
		}
	}
}

// checkExecution checks the execution itself, not its outputs: from the
// report's spans it asserts that every source task of the schedule ran
// exactly once, that no symbolic rank ran two tasks at once, that every
// task started after all its core.PrecedenceOf predecessors ended and —
// for a layered run — that no task of a layer started before every task
// of the layers before it ended. All spans must stem from sched: a run
// that replanned is checked one schedule at a time with checkSpans.
func checkExecution(t *testing.T, sched *core.Schedule, rep *Report, layered bool) {
	t.Helper()
	checkSpans(t, sched, 0, len(sched.Layers), rep.Spans, layered)
}

// checkSpans is checkExecution for the layers [from, to) of sched, whose
// successful attempts are exactly spans.
func checkSpans(t *testing.T, sched *core.Schedule, from, to int, spans []TaskSpan, layered bool) {
	t.Helper()
	prec, err := core.PrecedenceOf(sched)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]TaskSpan, len(spans))
	for _, s := range spans {
		if _, dup := byName[s.Name]; dup {
			t.Fatalf("task %q has two successful spans", s.Name)
		}
		byName[s.Name] = s
	}

	// Per scheduled task, the window its source tasks ran in; a contracted
	// chain runs its members back to back on one interval.
	type window struct{ start, end time.Duration }
	win := make(map[graph.TaskID]window, len(prec.Scheduled))
	perRank := make([][]TaskSpan, sched.P)
	layerStart := make([]time.Duration, len(sched.Layers))
	layerEnd := make([]time.Duration, len(sched.Layers))
	for li := range layerStart {
		layerStart[li] = time.Duration(1<<63 - 1)
	}
	seen := 0
	for _, id := range prec.Scheduled {
		td := prec.Tasks[id]
		if td.Layer < from || td.Layer >= to {
			continue
		}
		var wd window
		for i, src := range sched.SourceTasks(id) {
			name := sched.Source.Task(src).Name
			s, ok := byName[name]
			if !ok {
				t.Fatalf("task %q (layer %d group %d) has no span", name, td.Layer, td.Group)
			}
			seen++
			if s.Layer != td.Layer || s.Group != int(td.Group) || s.Cores != td.Hi-td.Lo {
				t.Fatalf("task %q ran as layer %d group %d on %d cores, scheduled as layer %d group %d on %d",
					name, s.Layer, s.Group, s.Cores, td.Layer, td.Group, td.Hi-td.Lo)
			}
			if i == 0 {
				wd.start = s.Start
			} else if s.Start < wd.end {
				t.Fatalf("chain member %q started at %v, before its predecessor in the chain ended (%v)", name, s.Start, wd.end)
			}
			wd.end = s.End
			for r := td.Lo; r < td.Hi; r++ {
				perRank[r] = append(perRank[r], s)
			}
		}
		win[id] = wd
		if wd.start < layerStart[td.Layer] {
			layerStart[td.Layer] = wd.start
		}
		if wd.end > layerEnd[td.Layer] {
			layerEnd[td.Layer] = wd.end
		}
	}
	if seen != len(spans) {
		t.Fatalf("%d spans, but layers [%d, %d) of the schedule have %d source tasks", len(spans), from, to, seen)
	}

	for r, rs := range perRank {
		sort.Slice(rs, func(i, j int) bool {
			return rs[i].Start < rs[j].Start || rs[i].Start == rs[j].Start && rs[i].End < rs[j].End
		})
		for i := 1; i < len(rs); i++ {
			if rs[i].Start < rs[i-1].End {
				t.Fatalf("rank %d runs %q (from %v) and %q (until %v) at once",
					r, rs[i].Name, rs[i].Start, rs[i-1].Name, rs[i-1].End)
			}
		}
	}
	for id, wd := range win {
		for _, dep := range prec.Tasks[id].Deps {
			if dw, ok := win[dep]; ok && wd.start < dw.end {
				t.Fatalf("task %d started at %v, before its predecessor %d ended (%v)", id, wd.start, dep, dw.end)
			}
		}
	}
	if layered {
		var barrier time.Duration // when the last layer before li ended
		for li := from; li < to; li++ {
			if layerStart[li] < barrier {
				t.Fatalf("layer %d started at %v, before the layers ahead of it ended (%v)", li, layerStart[li], barrier)
			}
			if layerEnd[li] > barrier {
				barrier = layerEnd[li]
			}
		}
	}
}
