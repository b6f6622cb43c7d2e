package runtime

import (
	"fmt"
	"hash/maphash"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TaskReport records the fault-tolerance history of one task.
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
// when the execution fails. A Report must not be read until the executor
// has returned (lean core-time sums are folded in as each pass joins).
type Report struct {
	mu sync.Mutex

	// Tasks holds the per-task histories keyed by task name.
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

	// Spans records one entry per successful task attempt, in completion
	// order, inner tasks of composed tasks included; timestamps are
	// offsets from the start of the execution. Use Timeline for a copy
	// sorted by start time.
	Spans []TaskSpan

	// P is the symbolic core count of the initial schedule (the
	// denominator of Utilization).
	P int

	// epoch is the wall-clock instant offsets are measured from. begin
	// writes it once before any worker starts (the go statements order
	// the write before every read), so since reads it without mu.
	epoch time.Time

	// lean drops O(tasks) state for million-task runs (WithoutTimeline):
	// successful attempts fold their core-time into busy instead of
	// appending a TaskSpan, and Tasks entries are created only for tasks
	// touched by fault handling.
	lean bool

	// busy accumulates successful-attempt core-time in lean mode (the
	// Utilization numerator normally recomputed from Spans).
	busy time.Duration

	// nhist counts the Tasks entries and hist is a one-hash filter over
	// their names, both written by task under mu and read without it
	// (mayHaveHistory).
	nhist atomic.Int32
	hist  [histWords]atomic.Uint64
}

// histWords sizes Report.hist (16384 bits); a false positive costs the lock.
const histWords = 256

var histSeed = maphash.MakeSeed()

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
	return &Report{Tasks: make(map[string]*TaskReport)}
}

// task returns the entry for the named task, creating it if needed.
// Callers must hold r.mu.
func (r *Report) task(name string) *TaskReport {
	tr := r.Tasks[name]
	if tr == nil {
		tr = &TaskReport{Name: name}
		r.Tasks[name] = tr
		h := maphash.String(histSeed, name)
		w := &r.hist[h>>6%histWords]
		w.Store(w.Load() | 1<<(h&63)) // every writer holds mu
		r.nhist.Add(1)
	}
	return tr
}

// mayHaveHistory reports whether the named task may have a Tasks entry;
// false is exact. Only the task's own failure creates its entry and its
// attempts are sequential, so a miss cannot race the entry's creation.
func (r *Report) mayHaveHistory(name string) bool {
	if r.nhist.Load() == 0 {
		return false
	}
	h := maphash.String(histSeed, name)
	return r.hist[h>>6%histWords].Load()&(1<<(h&63)) != 0
}

// startAttempt records the start of an attempt and returns its 1-based
// number, which is stable across retries and replans (the failure
// injector's script mode keys on it). In lean mode the first attempt of
// a never-failed task does not create a map entry — the entry appears
// (with this attempt back-counted) only if the task fails, so attempt
// numbering stays correct for every task that fails at least once. The
// exception is a never-failed task re-executed after a degrade-and-replan
// (it completed past the checkpoint, then runs again): with no retained
// entry its re-execution reports 1 again where non-lean mode reports 2
// — the documented WithoutTimeline replan caveat.
func (r *Report) startAttempt(name string) int {
	if r.lean && !r.mayHaveHistory(name) {
		return 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lean {
		tr := r.Tasks[name]
		if tr == nil {
			return 1 // a filter false positive
		}
		tr.Attempts++
		return tr.Attempts
	}
	tr := r.task(name)
	tr.Attempts++
	return tr.Attempts
}

// failed records a failed attempt of the named task.
func (r *Report) failed(name string) {
	r.mu.Lock()
	tr := r.task(name)
	if r.lean && tr.Attempts == 0 {
		tr.Attempts = 1 // the fast-pathed first attempt, counted on failure
	}
	tr.Failures++
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

// replanned records a degrade-and-replan escalation; lostTotal is the
// cumulative number of lost cores.
func (r *Report) replanned(lostTotal int) {
	r.mu.Lock()
	r.Replans++
	r.LostCores = lostTotal
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
	r.mu.Unlock()
}

// layerDone records a completed layer barrier.
func (r *Report) layerDone() {
	r.mu.Lock()
	r.Layers++
	r.mu.Unlock()
}

// begin anchors the report's timeline epoch, records the symbolic core
// count and, unless lean, reserves timeline capacity for n successful
// attempts; the executor calls it once, before any worker starts.
func (r *Report) begin(p, n int) {
	r.P, r.epoch = p, time.Now()
	if !r.lean && cap(r.Spans) < n {
		r.Spans = make([]TaskSpan, len(r.Spans), n)
	}
}

// since returns the current offset from the timeline epoch.
func (r *Report) since() time.Duration {
	if r.epoch.IsZero() {
		return 0
	}
	return time.Since(r.epoch)
}

// addSpan records the timeline entry of a successful attempt (a lean
// report sums core-time on the workers instead).
func (r *Report) addSpan(name string, layer, group, cores int, start, end time.Duration, composed bool) {
	r.mu.Lock()
	r.Spans = append(r.Spans, TaskSpan{Name: name, Layer: layer, Group: group, Cores: cores, Start: start, End: end, Composed: composed})
	r.mu.Unlock()
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

// Utilization summarises the timeline: busy is the core-time spent inside
// successful task attempts (span duration × group cores, composed tasks
// through their inner spans), idle is the rest of the P×Wall core-time
// budget, and frac is busy's share of it. A lower idle share on the same
// program is the direct measure of what wavefront execution recovers from
// the layer barriers.
func (r *Report) Utilization() (busy, idle time.Duration, frac float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	busy = r.busyLocked()
	total := time.Duration(r.P) * r.Wall
	if total > busy {
		idle = total - busy
	}
	if total > 0 {
		frac = float64(busy) / float64(total)
	}
	return busy, idle, frac
}

// busyLocked returns the busy core-time: the lean-mode accumulator (zero
// when spans are retained) plus every retained span but composed ones.
// Callers must hold r.mu.
func (r *Report) busyLocked() time.Duration {
	busy := r.busy
	for _, s := range r.Spans {
		if !s.Composed {
			busy += time.Duration(s.Cores) * (s.End - s.Start)
		}
	}
	return busy
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
	if r.lean && r.Replans > 0 {
		// The WithoutTimeline replan caveat, surfaced where operators read
		// it: lean reports keep no history for never-failed tasks, so their
		// re-execution after a replan restarts attempt numbering at 1.
		b.WriteString("  note: lean report (WithoutTimeline) — never-failed tasks re-executed after a replan restart attempt numbering at 1; scripts keyed on attempt numbers across a replan need the full report\n")
	}
	if r.P > 0 && (len(r.Spans) > 0 || r.busy > 0) {
		busy := r.busyLocked()
		total := time.Duration(r.P) * r.Wall
		idle := time.Duration(0)
		if total > busy {
			idle = total - busy
		}
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
