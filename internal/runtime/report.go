package runtime

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mtask/internal/graph"
)

// TaskReport records the fault-tolerance history of one task. Tasks that
// share a name share a TaskReport, which sums each count over them.
type TaskReport struct {
	Name     string
	Attempts int // body executions (first try + retries, across replans)
	Retries  int // attempts beyond the first
	Panics   int // panics recovered from the task's ranks
	Failures int // failed attempts (including the retried ones)
}

// Report makes the robustness of a fault-tolerant execution observable:
// per-task attempt counts, recovered panics, retries, degrade-and-replan
// escalations, lost cores and wall time. ExecuteCtx returns a Report even
// when the execution fails. Each rank worker logs its own successful
// attempts and core-time, and a pass folds the logs into the Report once
// its workers have joined; the attempt counts reach the Tasks entries when
// the executor returns. A Report must not be read before that.
type Report struct {
	mu sync.Mutex

	// Tasks holds the per-task histories keyed by task name. Tasks that
	// share a name share an entry, which sums their counts; their attempts
	// are numbered apart all the same (fault.Script).
	Tasks map[string]*TaskReport

	// Retries and Panics total the per-task counts.
	Retries int
	Panics  int

	// Replans counts degrade-and-replan escalations; LostCores is the
	// total number of symbolic cores given up across them.
	Replans   int
	LostCores int

	// Resizes counts voluntary resizes applied at layer barriers
	// (WithResizer); GrownCores and ShrunkCores total the symbolic cores
	// gained and given up across them. Unlike Replans, resizes are not
	// failures: the machine-level job allocator uses them to grow and
	// shrink running jobs.
	Resizes     int
	GrownCores  int
	ShrunkCores int

	// Layers counts completed layer barriers of the top-level schedule
	// (the recovery checkpoints reached); the layers of composed tasks
	// are not counted.
	Layers int

	// Wall is the wall-clock duration of the execution.
	Wall time.Duration

	// Spans records one entry per successful task attempt, inner tasks of
	// composed tasks included; timestamps are offsets from the start of
	// the execution. They are grouped by dispatcher and by the worker that
	// led them, not in completion order across workers: use Timeline for a
	// copy sorted by start time.
	Spans []TaskSpan

	// P is the symbolic core count of the initial schedule.
	P int

	// epoch is the wall-clock instant offsets are measured from. begin
	// writes it once before any worker starts (the go statements order
	// the write before every read), so since reads it without mu.
	epoch time.Time

	// lean drops O(tasks) state for million-task runs (WithoutTimeline):
	// the workers log no spans, and end fills in Tasks entries only for
	// tasks with a fault history. Written before any worker starts.
	lean bool

	// busy is the core-time of successful attempts, summed by the workers
	// and folded in per dispatcher (the Utilization numerator).
	busy time.Duration

	// budget is the core-time of the schedules that ran before the current
	// one, which has run on cores since the offset coresFrom; the
	// Utilization denominator is budget + cores × (Wall − coresFrom).
	budget    time.Duration
	cores     int
	coresFrom time.Duration

	// attempts holds each level's attempt counters, one per source task
	// (attemptCounters); end adds them to the Tasks entries.
	attempts map[level][]atomic.Int32
}

// level names one level of an execution: its name prefix ("" at the top,
// "<composed>[<trip>]/" inside a composed task) and its source graph, so
// composed tasks that share a name but not a body count apart.
type level struct {
	prefix string
	source *graph.Graph
}

// TaskSpan is the timeline entry of one successful task attempt: which
// task ran where, and when. Start and End are offsets from the beginning
// of the execution, so spans from one Report are directly comparable.
// Layer and Group locate the task in the schedule of its own level.
type TaskSpan struct {
	Name       string
	Layer      int
	Group      int
	Cores      int
	Start, End time.Duration
	// Composed marks the span of a composed task: its inner tasks have
	// spans of their own, so its core-time is not counted as busy.
	Composed bool
}

// Duration returns the span's elapsed time.
func (s TaskSpan) Duration() time.Duration { return s.End - s.Start }

// NewReport returns an empty report.
func NewReport() *Report {
	return &Report{Tasks: make(map[string]*TaskReport), attempts: make(map[level][]atomic.Int32)}
}

// task returns the entry for the named task, creating it if needed.
// Callers must hold r.mu.
func (r *Report) task(name string) *TaskReport {
	tr := r.Tasks[name]
	if tr == nil {
		tr = &TaskReport{Name: name}
		r.Tasks[name] = tr
	}
	return tr
}

// attemptCounters returns the attempt counters of the level running
// source under prefix, one per source task. runLayered looks them up once
// per run of the level and keeps them across replans and resizes (same
// source tasks, core.SameLayering); a retried composed task finds them
// here again. Only a task's leader increments its counter, once per
// attempt, but the straggler of an abandoned composed attempt may still
// number inner tasks beside the retry, hence the atomics.
func (r *Report) attemptCounters(prefix string, source *graph.Graph) []atomic.Int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.attempts[level{prefix, source}]
	if c == nil {
		c = make([]atomic.Int32, source.Len())
		r.attempts[level{prefix, source}] = c
	}
	return c
}

// failed records a failed attempt of the named task.
func (r *Report) failed(name string) {
	r.mu.Lock()
	r.task(name).Failures++
	r.mu.Unlock()
}

// retried records that the named task is being retried.
func (r *Report) retried(name string) {
	r.mu.Lock()
	r.task(name).Retries++
	r.Retries++
	r.mu.Unlock()
}

// addPanics records n recovered panics in the named task's ranks.
func (r *Report) addPanics(name string, n int) {
	if n == 0 {
		return
	}
	r.mu.Lock()
	r.task(name).Panics += n
	r.Panics += n
	r.mu.Unlock()
}

// replanned records a degrade-and-replan escalation onto p cores;
// lostTotal is the cumulative number of lost cores.
func (r *Report) replanned(lostTotal, p int) {
	r.mu.Lock()
	r.Replans++
	r.LostCores = lostTotal
	r.reshapeLocked(p)
	r.mu.Unlock()
}

// resized records a voluntary resize applied at a layer barrier; delta is
// the signed change of the symbolic core count.
func (r *Report) resized(delta int) {
	r.mu.Lock()
	r.Resizes++
	if delta >= 0 {
		r.GrownCores += delta
	} else {
		r.ShrunkCores -= delta
	}
	r.reshapeLocked(r.cores + delta)
	r.mu.Unlock()
}

// reshapeLocked charges the schedule that ran until now to the core-time
// budget; the next one runs on p cores. Callers must hold r.mu.
func (r *Report) reshapeLocked(p int) {
	now := r.since()
	r.budget += time.Duration(r.cores) * (now - r.coresFrom)
	r.cores, r.coresFrom = p, now
}

// layerDone records a completed layer barrier.
func (r *Report) layerDone() {
	r.mu.Lock()
	r.Layers++
	r.mu.Unlock()
}

// begin anchors the report's timeline epoch and records the symbolic
// core count; the executor calls it once, before any worker starts.
func (r *Report) begin(p int) {
	r.P, r.cores, r.epoch = p, p, time.Now()
}

// end stamps the wall time and adds every task's attempt count to its
// Tasks entry; the executor calls it once, after its last pass. A lean
// report counts only the tasks with an entry, a full one makes an entry
// for every task that ran.
func (r *Report) end() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Wall = r.since()
	if r.lean && len(r.Tasks) == 0 {
		return
	}
	for lv, c := range r.attempts {
		for i := range c {
			if n := int(c[i].Load()); n > 0 {
				name := lv.prefix + lv.source.Task(graph.TaskID(i)).Name
				if !r.lean || r.Tasks[name] != nil {
					r.task(name).Attempts += n
				}
			}
		}
	}
}

// since returns the current offset from the timeline epoch.
func (r *Report) since() time.Duration {
	if r.epoch.IsZero() {
		return 0
	}
	return time.Since(r.epoch)
}

// Timeline returns a copy of the per-task spans sorted by start time
// (ties by name). In layered mode the starts of a layer cluster behind the
// previous layer's join; in wavefront mode a task starts as soon as its
// dependences allow, which is where the idle-time win comes from.
func (r *Report) Timeline() []TaskSpan {
	r.mu.Lock()
	spans := append([]TaskSpan(nil), r.Spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Name < spans[j].Name
	})
	return spans
}

// Utilization summarises the run's core-time: busy is the core-time spent
// inside successful task attempts (duration × group cores, composed tasks
// through their inner tasks), idle is the rest of the core-time budget —
// each schedule's cores × the wall time it ran, so P × Wall unless a
// resize or replan changed the core count — and frac is busy's share of
// it. A lower idle share on the same program is the direct measure of
// what wavefront execution recovers from the layer barriers.
func (r *Report) Utilization() (busy, idle time.Duration, frac float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	busy, idle, total := r.coreTimeLocked()
	if total > 0 {
		frac = float64(busy) / float64(total)
	}
	return busy, idle, frac
}

// coreTimeLocked returns the busy core-time, the idle rest of the budget
// and the budget. Callers must hold r.mu.
func (r *Report) coreTimeLocked() (busy, idle, total time.Duration) {
	total = r.budget
	if r.Wall > r.coresFrom {
		total += time.Duration(r.cores) * (r.Wall - r.coresFrom)
	}
	if total > r.busy {
		idle = total - r.busy
	}
	return r.busy, idle, total
}

// Task returns a copy of the named task's history (zero value if the task
// never ran).
func (r *Report) Task(name string) TaskReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	if tr := r.Tasks[name]; tr != nil {
		return *tr
	}
	return TaskReport{Name: name}
}

// String renders the report: the totals line always, then one line per
// task that needed fault handling (attempts > 1 or recovered panics). A
// lean report counts only the tasks with a fault history.
func (r *Report) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	tasks := "tasks"
	if r.lean {
		tasks = "tasks with fault history"
	}
	fmt.Fprintf(&b, "execution report: %d %s, %d layers done, %d retries, %d recovered panics, %d replans (%d cores lost), wall %v\n",
		len(r.Tasks), tasks, r.Layers, r.Retries, r.Panics, r.Replans, r.LostCores, r.Wall.Round(time.Microsecond))
	if r.Resizes > 0 {
		fmt.Fprintf(&b, "  resizes: %d applied at layer barriers (+%d/-%d cores)\n",
			r.Resizes, r.GrownCores, r.ShrunkCores)
	}
	if r.P > 0 && (len(r.Spans) > 0 || r.busy > 0) {
		busy, idle, total := r.coreTimeLocked()
		// A zero-duration report (empty schedule, or Wall not yet set)
		// has no wall time to divide by: utilization is n/a, not NaN.
		util := "n/a"
		if total > 0 {
			util = fmt.Sprintf("%.1f%% utilized", 100*float64(busy)/float64(total))
		}
		fmt.Fprintf(&b, "  core-time: busy %v, idle %v of %v (%s)\n",
			busy.Round(time.Microsecond), idle.Round(time.Microsecond), total.Round(time.Microsecond), util)
	}
	names := make([]string, 0, len(r.Tasks))
	for name, tr := range r.Tasks {
		if tr.Attempts > 1 || tr.Panics > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		tr := r.Tasks[name]
		fmt.Fprintf(&b, "  %-24s attempts=%d retries=%d panics=%d failures=%d\n",
			tr.Name, tr.Attempts, tr.Retries, tr.Panics, tr.Failures)
	}
	return b.String()
}
