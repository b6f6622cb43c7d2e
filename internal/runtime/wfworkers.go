package runtime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mtask/internal/core"
	"mtask/internal/graph"
	"mtask/internal/obs"
)

// Task lifecycle states of the dispatcher.
const (
	wfPending uint32 = iota // not yet complete
	wfDone                  // completed successfully
	wfSkipped               // failed, or never launched because of the failure drain
)

// wfDispatcher executes one schedule: P rank workers walk their
// precomputed occupancy chains and coordinate through atomic dependence
// counters — there is no central coordinator and no channel on the
// completion hot path. It is built once per schedule (again after a
// replan or resize) and runs one pass over every remaining layer. In
// layered execution the layer barrier is one more launch condition: no
// task starts before its layer opens (openLayer).
//
// Ownership of the counters is what makes the lock-free scheme sound:
//
//   - remaining[t] is decremented only by completing predecessors of t
//     (each exactly once), and t's leader runs only after observing zero —
//     the decrement-to-zero is the launch event, and the soundness check
//     of core.PrecedenceOf (dependences point strictly backwards in the
//     schedule) makes the countdown deadlock-free.
//   - state[t] is written only by t's leader (the worker of rank
//     prec.Tasks[t].Lo); followers and draining workers only read it,
//     except for the pending→skipped CAS of the failure drain, which can
//     race only with the leader's own drain of the same entry.
//   - layerLeft[li] is decremented once per completed task of layer li;
//     whoever decrements it to zero advances the completed-layer prefix
//     under doneMu (the only lock, taken once per layer completion, not
//     per task) and, in a layered pass, opens the next layer.
//   - attempts[src] is incremented only by the leader of the task that
//     runs src, once per attempt; attempts of one task are sequential.
//
// Parking uses one token channel of capacity 1 per worker with
// recheck-before-park loops: every producer changes the awaited atomic
// first and then deposits a token (non-blocking), every consumer
// re-checks the condition before each receive, so a coalesced or stale
// token is harmless and a wake is never lost.
//
// Every attempt runs on the workers of its group's ranks, each running its
// own share of the body (runShare). Without a deadline a share runs in
// place on its worker, so caller cancellation is observed between
// attempts and by bodies that honor their TaskCtx.Ctx (a body that does
// fails the attempt, which aborts the group communicator and releases any
// peers blocked in collectives); a body that ignores it runs to
// completion first. When the policy sets a deadline that applies to the
// attempts, every share runs on a goroutine its worker waits for: once the
// attempt context ends the worker aborts the group communicator and,
// past the abandon grace, abandons a share that still runs.
type wfDispatcher struct {
	w     *World
	sched *core.Schedule
	prec  *core.Precedence
	cfg   *execConfig
	rep   *Report
	body  func(t *graph.Task) TaskFunc

	// ranks are the world ranks of the symbolic ranks 0..P-1 (the
	// identity at the top level, the group's world ranks inside a
	// composed task); group communicators of interval [lo, hi) use
	// ranks[lo:hi] directly, so attempts never allocate a rank slice.
	ranks []int

	// deadline is set when the policy bounds the attempts of this pass
	// (TaskTimeout, or LayerTimeout in a layered pass): shares must then
	// be abandonable, so each runs on a goroutine its worker waits for.
	deadline bool

	// runCtx is the pass's context, ctx that of the open layer's attempts:
	// runCtx, or a layered pass's LayerTimeout deadline (cancel ends it).
	// openLayer writes ctx before it publishes the layer in open.
	runCtx context.Context
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// Tasks of layers up to open may start, none of layers from stop on
	// (set by a failure, or by openLayer ending the pass at a boundary
	// with the resizer's schedule in resized or the error in haltErr).
	open    atomic.Int32
	stop    atomic.Int32
	resized *core.Schedule
	haltErr error

	attempts  []atomic.Int32  // per source task: the level's attempt counters
	remaining []atomic.Int32  // per task: outstanding dependences
	state     []atomic.Uint32 // per task: wfPending / wfDone / wfSkipped
	layerLeft []atomic.Int32  // per layer: tasks not yet complete

	doneMu sync.Mutex
	done   int // completed-layer prefix (the replan checkpoint)

	errMu sync.Mutex
	errs  []wfTaskError
	lost  []uint64 // bitset of symbolic ranks owned by exhausted groups

	workers []wfWorker

	// ready/peakReady gauge the launch backlog: tasks whose dependences
	// have drained but whose leader has not started them yet (under
	// layered execution that includes next-layer tasks held back by the
	// barrier). The pad keeps these per-task writes off the line of the
	// workers slice, which every wake reads.
	_         [64]byte
	ready     atomic.Int64
	peakReady atomic.Int64
}

// wfTaskError is the terminal failure of one scheduled task.
type wfTaskError struct {
	td  *core.TaskDeps
	err error
}

// wfWorker is the worker of one symbolic rank. One goroutine runs
// wfWorker.run for the whole pass (rank 0's is the pass's caller); the
// publication fields are read by follower workers with the seq atomic as
// the synchronization edge.
type wfWorker struct {
	d    *wfDispatcher
	rank int
	next int           // cursor into the rank's occupancy chain
	wake chan struct{} // capacity 1; token = "re-check your condition"

	// lastSeq[r] is the last attempt sequence number of leader rank r
	// this worker participated in (followers run each published attempt
	// exactly once).
	lastSeq []uint64

	// Leader-side attempt publication. gsh, fn, src, name, attempt and
	// actx are written first, then seq is bumped, then curTask is set to the
	// scheduled task id (-1 outside a published attempt) — in that order,
	// so a follower that observes curTask == id is guaranteed to read this
	// publication's seq and fields, never a previous task's: sync/atomic
	// operations are sequentially consistent, so the follower's subsequent
	// seq load returns at least this publication's value, and it cannot
	// return more because the leader does not advance past an attempt
	// until every follower has run it (pending drains to zero).
	curTask atomic.Int64
	seq     atomic.Uint64
	pending atomic.Int32 // followers that have not finished the published attempt
	gsh     *commShared  // kept past a successful attempt for the next (groupComm)
	fn      TaskFunc
	src     *graph.Task
	name    string
	attempt int
	actx    context.Context // the attempt context; nil without a deadline
	errs    []error         // per-group-rank results of the published attempt

	// scratch is rebuilt in place for every share run on the worker, so
	// steady-state dispatch allocates nothing; bodies must not retain the
	// *TaskCtx past their return. share is the heap share of the
	// deadline path, reused until a straggler keeps it.
	scratch rankShare
	share   *rankShare

	wakeups       int64 // tokens consumed while parked
	chainLaunches int64 // leader tasks started without parking

	// busy sums the core-time of the successful attempts this worker led
	// and log holds their spans (none in a lean Report) until the pass
	// folds both into the Report; stats counts the collectives of the
	// communicators it leads. The pad keeps them off the next worker.
	busy  time.Duration
	log   []TaskSpan
	stats Stats
	_     [64]byte
}

// newDispatcher builds the dispatcher of sched resuming at layer from:
// the layers before it are a completed checkpoint, so their tasks do not
// run again and their outgoing dependences count as satisfied. attempts
// are the level's attempt counters (Report.attemptCounters).
func newDispatcher(w *World, sched *core.Schedule, from int, body func(t *graph.Task) TaskFunc,
	cfg *execConfig, rep *Report, attempts []atomic.Int32) (*wfDispatcher, error) {

	prec, err := core.PrecedenceOf(sched)
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	pol := cfg.policy
	ranks := cfg.ranks
	if ranks == nil {
		ranks = identityRanks(sched.P)
	}
	d := &wfDispatcher{
		w: w, sched: sched, prec: prec, cfg: cfg, rep: rep, body: body,
		ranks:     ranks,
		attempts:  attempts,
		deadline:  pol.TaskTimeout > 0 || !cfg.wavefront && pol.LayerTimeout > 0,
		remaining: make([]atomic.Int32, len(prec.Tasks)),
		state:     make([]atomic.Uint32, len(prec.Tasks)),
		layerLeft: make([]atomic.Int32, len(sched.Layers)),
		lost:      make([]uint64, (sched.P+63)/64),
		workers:   make([]wfWorker, sched.P),
		done:      from,
	}
	d.stop.Store(math.MaxInt32)
	if cfg.wavefront {
		d.open.Store(math.MaxInt32) // every layer is open from the start
	}
	for li := from; li < len(sched.Layers); li++ {
		d.layerLeft[li].Store(int32(prec.LayerCounts[li]))
	}
	for _, id := range prec.Scheduled {
		td := prec.Tasks[id]
		if td.Layer < from {
			continue
		}
		n := 0
		for _, dep := range td.Deps {
			if prec.Tasks[dep].Layer >= from {
				n++
			}
		}
		d.remaining[id].Store(int32(n))
		if n == 0 {
			d.noteReady()
		}
	}

	errSlab := make([]error, sched.P*prec.MaxGroup)
	seqSlab := make([]uint64, sched.P*sched.P)
	for r := range d.workers {
		wk := &d.workers[r]
		wk.d = d
		wk.rank = r
		wk.wake = make(chan struct{}, 1)
		wk.curTask.Store(-1)
		wk.errs = errSlab[r*prec.MaxGroup : (r+1)*prec.MaxGroup]
		wk.lastSeq = seqSlab[r*sched.P : (r+1)*sched.P]
		for chain := prec.Chains[r]; wk.next < len(chain) && prec.Tasks[chain[wk.next]].Layer < from; {
			wk.next++
		}
	}
	return d, nil
}

// pass runs every remaining layer under ctx and returns the new
// completed-layer prefix — the checkpoint a degrade-and-replan resumes
// from — with the joined task failures and the number of distinct
// symbolic cores owned by groups that exhausted their retries. A pass
// that a resizer ended returns with d.resized set.
//
// A wavefront pass stops launching on the first failure and drains the
// in-flight frontier (completions during the drain still advance the
// checkpoint). A layered pass lets every group of the failed layer run to
// its own end and opens no later layer, so its fault accounting does not
// depend on timing; each of its layers is bounded by the policy's
// LayerTimeout. Bodies see the same TaskCtx in every pass: layered or
// wavefront, at the top level or inside a composed task.
func (d *wfDispatcher) pass(ctx context.Context) (done int, err error, failedCores int) {
	d.runCtx, d.ctx = ctx, ctx
	if d.openLayer(false) {
		d.advance() // wavefront: layers with no tasks complete at once
		d.wg.Add(len(d.workers))
		for r := 1; r < len(d.workers); r++ {
			go d.workers[r].run()
		}
		d.workers[0].run() // on the calling goroutine, which would only wait
		d.wg.Wait()
		if d.cancel != nil {
			d.cancel() // the deadline of a layer that never closed
		}
		d.fold()
	}
	if d.haltErr != nil {
		return d.done, d.haltErr, 0
	}
	if len(d.errs) == 0 {
		if d.done != len(d.sched.Layers) && d.resized == nil {
			// Cannot happen for a valid schedule (PrecedenceOf proves the
			// dependences acyclic), but a stall must be an error, not a
			// silent partial result.
			return d.done, fmt.Errorf("runtime: dispatch stalled after layer %d of %d (internal error)",
				d.done, len(d.sched.Layers)), 0
		}
		return d.done, nil, 0
	}
	// Schedule order, not failure order: the joined error of a layered
	// pass is deterministic.
	sort.Slice(d.errs, func(i, j int) bool {
		a, b := d.errs[i].td, d.errs[j].td
		return a.Layer < b.Layer || a.Layer == b.Layer && a.Group < b.Group
	})
	joined := make([]error, len(d.errs))
	for i, e := range d.errs {
		joined[i] = fmt.Errorf("layer %d group %d: %w", e.td.Layer, e.td.Group, e.err)
	}
	for _, word := range d.lost {
		failedCores += bits.OnesCount64(word)
	}
	return d.done, errors.Join(joined...), failedCores
}

// fold moves the joined workers' busy core-time and spans into the
// Report under one lock and their collective counts into the World's
// Stats (an abandoned share's later ones are lost), and adds the pass's
// dispatch metrics to the recorder: sums, and the launch-backlog peak as
// a maximum over the run.
func (d *wfDispatcher) fold() {
	var wakeups, chainLaunches int64
	r := d.rep
	r.mu.Lock()
	for i := range d.workers {
		wk := &d.workers[i]
		r.busy += wk.busy
		r.Spans = append(r.Spans, wk.log...)
		wakeups += wk.wakeups
		chainLaunches += wk.chainLaunches
		d.w.Stats.addAll(&wk.stats)
	}
	r.mu.Unlock()
	if rec := d.cfg.rec; rec != nil {
		rec.Counter("exec.wf.wakeups").Add(wakeups)
		rec.Counter("exec.wf.chain_launches").Add(chainLaunches)
		if pk := d.peakReady.Load(); pk > rec.Counter("exec.wf.peak_ready").Value() {
			rec.SetMetric("exec.wf.peak_ready", pk)
		}
	}
}

// run walks the worker's occupancy chain: lead the tasks whose interval
// starts at this rank, follow the rest. When a led task fails, or the
// pass stops launching its layer, the worker marks its remaining leader
// entries skipped, waking their followers, and exits; in-flight attempts
// drain through their own leaders.
func (wk *wfWorker) run() {
	d := wk.d
	defer d.wg.Done()
	chain := d.prec.Chains[wk.rank]
	for ; wk.next < len(chain); wk.next++ {
		td := d.prec.Tasks[chain[wk.next]]
		if td.Lo == wk.rank {
			if !wk.lead(td) {
				wk.drainChain(chain[wk.next:])
				return
			}
		} else {
			wk.follow(td)
		}
	}
}

// lead waits for the task's layer to open (followers run what their
// leader publishes) and its dependence counter to drain, then runs it
// with the full retry loop. It returns false when the task failed or the
// pass stopped launching its layer, and the worker must stop launching.
func (wk *wfWorker) lead(td *core.TaskDeps) bool {
	d := wk.d
	for td.Layer > int(d.open.Load()) { // the layer barrier: no dependence, not a park
		if td.Layer >= int(d.stop.Load()) {
			return false
		}
		<-wk.wake
	}
	parked := false
	for d.remaining[td.ID].Load() != 0 {
		if td.Layer >= int(d.stop.Load()) {
			return false
		}
		<-wk.wake
		wk.wakeups++
		parked = true
	}
	if td.Layer >= int(d.stop.Load()) {
		return false // became ready during the drain: do not launch
	}
	if !parked {
		wk.chainLaunches++
	}
	d.ready.Add(-1)

	// curTask is NOT set here: it is published per attempt inside
	// coopAttempt, strictly after the attempt's fields and seq, so
	// followers can never observe the task id before its publication.
	err, exhausted := wk.runScheduledTask(td)
	if err != nil {
		d.fail(td, err, exhausted)
		return false
	}
	d.complete(td)
	return true
}

// follow participates in the attempts of a task led by another rank:
// park until the task settles (done or skipped) or the leader publishes
// an attempt this worker has not run yet, then run this rank's share of
// the body and report back through the leader's pending counter.
func (wk *wfWorker) follow(td *core.TaskDeps) {
	d := wk.d
	ld := &d.workers[td.Lo]
	r := wk.rank - td.Lo // this worker's rank within the group
	for {
		if d.state[td.ID].Load() != wfPending {
			return
		}
		if ld.curTask.Load() == int64(td.ID) {
			// curTask is stored after the seq bump, which is stored after
			// the publication fields and this rank's errs-slot reset, so having
			// observed curTask == id this seq load returns at least the
			// current publication's value — and not more, because the
			// leader cannot publish the next attempt until this worker
			// decrements pending. Observing seq is therefore the
			// synchronization edge for the publication fields, and the
			// fields stay stable until this worker reports back.
			if sq := ld.seq.Load(); sq != wk.lastSeq[td.Lo] {
				wk.lastSeq[td.Lo] = sq
				ld.errs[r] = wk.runShare(ld, td, r)
				if ld.pending.Add(-1) == 0 {
					d.wakeWorker(ld.rank) // the last follower to report wakes the leader
				}
				continue
			}
		}
		<-wk.wake
		wk.wakeups++
	}
}

// coopAttempt runs one attempt of one source task on the workers of the
// group's interval: the leader takes its group communicator over
// ranks[lo:hi] (groupComm) and, under a deadline, the attempt context,
// publishes the attempt to its followers, runs its own rank-0 share,
// waits for the followers and settles.
func (wk *wfWorker) coopAttempt(t *graph.Task, name string, fn TaskFunc, attempt int, td *core.TaskDeps) error {
	d := wk.d
	lo, hi := td.Lo, td.Hi
	size := hi - lo
	gsh := wk.groupComm(hi)
	var actx context.Context
	var cancel context.CancelFunc
	if d.deadline {
		actx = d.ctx
		if tt := d.cfg.policy.TaskTimeout; tt > 0 {
			actx, cancel = context.WithTimeout(d.ctx, tt)
		}
	}

	wk.gsh, wk.fn, wk.src, wk.name, wk.attempt, wk.actx = gsh, fn, t, name, attempt, actx
	if size > 1 {
		for i := 1; i < size; i++ {
			wk.errs[i] = nil
		}
		wk.pending.Store(int32(size - 1))
		wk.seq.Add(1)
		// Publish the task id LAST. The leader's seq counter is cumulative
		// across every task it leads, so a follower joining this leader for
		// the first time has lastSeq == 0 while seq may already be large;
		// if curTask were visible before the bump, that follower could pass
		// the seq != lastSeq check against a stale seq and run the previous
		// task's fields — a released communicator, the wrong body, and a
		// spurious pending decrement. Storing curTask after seq closes
		// that window: curTask == id implies the publication is complete.
		wk.curTask.Store(int64(td.ID))
		for r := lo + 1; r < hi; r++ {
			d.wakeWorker(r)
		}
	}

	wk.errs[0] = wk.runShare(wk, td, 0)

	for size > 1 && wk.pending.Load() != 0 {
		<-wk.wake
		wk.wakeups++
	}
	if size > 1 {
		// Every follower has run this publication and reported back;
		// retract the id before the communicator is reused so curTask != -1
		// always means "publication live" (a late re-check between the
		// drain and this store matches lastSeq and parks harmlessly).
		wk.curTask.Store(-1)
	}
	err := settleAttempt(name, d.rep, wk.errs[:size])
	if err != nil || actx != nil && actx.Err() != nil || gsh.bar.poison.Load() != nil {
		// A failed attempt aborted the communicator, and once the attempt
		// context ended an abandoned share may still hold it.
		wk.gsh = nil
	}
	if cancel != nil {
		cancel()
	}
	return err
}

// groupComm returns the leader's group communicator for an attempt on
// [rank, hi): a new one first and after a failed attempt, else that of
// the last attempt, whose shares all returned. On the same interval it is
// reused as is — its members left with equal sequence numbers and barrier
// generations, so slot parities and flags carry on — on another it is
// reset in place; split children of the last attempt are dropped.
func (wk *wfWorker) groupComm(hi int) *commShared {
	d, gsh := wk.d, wk.gsh
	switch {
	case gsh == nil:
		return newCommShared(Group, d.ranks[wk.rank:hi], &wk.stats, d.cfg.rec, d.cfg.spin)
	case len(gsh.ranks) != hi-wk.rank:
		gsh.reset(Group, d.ranks[wk.rank:hi], &wk.stats, d.cfg.rec, d.cfg.spin)
	case gsh.children != nil:
		gsh.splits, gsh.children = nil, nil
	}
	return gsh
}

// rankShare is one rank's share of an attempt: its TaskCtx and the
// group handle it points to.
type rankShare struct {
	tc    TaskCtx
	group Comm
	done  chan error // capacity 1; the deadline path's result slot
}

// bind rebuilds the share for rank r of the attempt of t on gsh.
func (s *rankShare) bind(gsh *commShared, r int, t *graph.Task, td *core.TaskDeps, ctx context.Context) *TaskCtx {
	s.group = Comm{shared: gsh, rank: r}
	s.tc = TaskCtx{Group: &s.group, Task: t, Layer: td.Layer, GroupIndex: int(td.Group), Ctx: ctx}
	return &s.tc
}

// runShare runs this worker's share — group rank r — of the attempt
// published by ld (the worker itself when it leads). Without a deadline
// the body runs in place on the worker's scratch; under one, on a
// goroutine (runShareDeadline).
func (wk *wfWorker) runShare(ld *wfWorker, td *core.TaskDeps, r int) error {
	if ld.actx != nil {
		return wk.runShareDeadline(ld, td, r)
	}
	d := wk.d
	return runRankAttempt(wk.scratch.bind(ld.gsh, r, ld.src, td, d.ctx), ld.name, ld.fn, ld.attempt, ld.gsh, d.cfg)
}

// runShareDeadline runs the share on a goroutine over the worker's heap
// share and waits for it. Once the attempt context ends the worker aborts
// the group communicator, releasing peers blocked in collectives, and
// waits at most the abandon grace. A share that still runs then is
// abandoned: it keeps its rankShare, so the straggler writes only to its
// own done slot, and the worker takes a fresh one for its next share.
func (wk *wfWorker) runShareDeadline(ld *wfWorker, td *core.TaskDeps, r int) error {
	s := wk.share
	if s == nil {
		s = &rankShare{done: make(chan error, 1)}
		wk.share = s
	}
	tc := s.bind(ld.gsh, r, ld.src, td, ld.actx)
	gsh, fn, name, attempt, actx, cfg := ld.gsh, ld.fn, ld.name, ld.attempt, ld.actx, wk.d.cfg
	go func() { s.done <- runRankAttempt(tc, name, fn, attempt, gsh, cfg) }()
	select {
	case err := <-s.done:
		return err
	case <-actx.Done():
	}
	cause := fmt.Errorf("task %q attempt %d: %w", name, attempt, actx.Err())
	gsh.abort(cause)
	timer := time.NewTimer(cfg.grace)
	defer timer.Stop()
	select {
	case err := <-s.done:
		if err == nil {
			err = cause // the deadline struck first: the attempt failed
		}
		return err
	case <-timer.C:
		wk.share = nil
		return fmt.Errorf("task %q attempt %d abandoned after %v grace: %w", name, attempt, cfg.grace, actx.Err())
	}
}

// complete marks a task done, advances the completed-layer prefix when
// its layer drains, decrements the successors' dependence counters
// (whoever reaches zero wakes the successor's leader) and wakes the
// task's followers so they move past it.
func (d *wfDispatcher) complete(td *core.TaskDeps) {
	d.state[td.ID].Store(wfDone)
	if d.layerLeft[td.Layer].Add(-1) == 0 {
		d.advance()
	}
	for _, su := range td.Succs {
		if d.remaining[su].Add(-1) == 0 {
			d.noteReady()
			if lo := d.prec.Tasks[su].Lo; lo != td.Lo {
				d.wakeWorker(lo)
			}
			// A successor led by this same rank is a chain-local launch:
			// the worker finds the drained counter on its own next chain
			// step, no token needed.
		}
	}
	for r := td.Lo + 1; r < td.Hi; r++ {
		d.wakeWorker(r)
	}
}

// advance moves the completed-layer prefix over every drained layer; a
// layered pass closes one layer and opens the next outside the lock.
func (d *wfDispatcher) advance() {
	d.doneMu.Lock()
	closed := false
	for !closed && d.done < len(d.layerLeft) && d.layerLeft[d.done].Load() == 0 {
		d.closeLayer()
		closed = !d.cfg.wavefront
	}
	d.doneMu.Unlock()
	if closed {
		d.openLayer(true)
	}
}

// closeLayer advances the completed-layer prefix by one layer, recording
// each top-level checkpoint (Report.Layers does not count the layers of
// composed tasks).
func (d *wfDispatcher) closeLayer() {
	if d.cfg.prefix == "" {
		d.rep.layerDone()
		d.cfg.rec.Instant("layer-done", "exec", obs.ControlRank, d.cfg.rec.Now())
	}
	d.done++
}

// openLayer opens layer d.done. pass calls it before the workers start,
// advance once a layered pass closed a layer: then no body runs and no
// other worker touches the layer state until the layer opens. It cancels
// the closed layer's deadline, consults the resizer (boundary) and
// observes cancellation; in a layered pass it then closes a layer with no
// tasks at once, or arms the layer's deadline, opens it and wakes its
// group leaders. It reports false when the pass halts at the layer
// instead: no task of it or later starts.
func (d *wfDispatcher) openLayer(boundary bool) bool {
	for ; ; boundary = true {
		li := d.done
		if d.cancel != nil {
			d.cancel()
			d.cancel = nil
		}
		if li == len(d.layerLeft) {
			return true
		}
		if boundary && d.cfg.resize != nil {
			ns, err := d.cfg.resize(d.runCtx, li)
			if err != nil {
				d.haltErr = fmt.Errorf("runtime: resize at layer barrier %d: %w", li, err)
			} else if ns != d.sched {
				d.resized = ns // nil keeps the schedule
			}
		}
		if err := d.runCtx.Err(); err != nil && d.haltErr == nil && d.resized == nil {
			d.haltErr = fmt.Errorf("runtime: execution canceled before layer %d: %w", li, err)
		}
		if d.haltErr != nil || d.resized != nil {
			d.stop.Store(int32(li))
			d.wakeAll()
			return false
		}
		if d.cfg.wavefront {
			return true
		}
		if d.prec.LayerCounts[li] > 0 {
			d.ctx = d.runCtx
			if lt := d.cfg.policy.LayerTimeout; lt > 0 {
				d.ctx, d.cancel = context.WithTimeout(d.runCtx, lt)
			}
			d.open.Store(int32(li))
			lo := 0
			for _, size := range d.sched.Layers[li].Sizes {
				d.wakeWorker(lo)
				lo += size
			}
			return true
		}
		d.closeLayer()
	}
}

// fail records a terminal task failure, marks the lost ranks of an
// exhausted group in the bitset and wakes every worker so parked
// followers move on. A wavefront pass enters the failure drain: parked
// leaders stop launching. A layered pass stops only at the next layer —
// the groups of the failed layer share no dependences, and each runs to
// its own end.
func (d *wfDispatcher) fail(td *core.TaskDeps, err error, exhausted bool) {
	d.errMu.Lock()
	d.errs = append(d.errs, wfTaskError{td, err})
	if exhausted {
		// The union of exhausted groups' rank intervals: concurrent
		// failures in different layers may claim overlapping ranks, and a
		// symbolic core is only lost once.
		for r := td.Lo; r < td.Hi; r++ {
			d.lost[r>>6] |= 1 << (uint(r) & 63)
		}
	}
	d.errMu.Unlock()
	d.state[td.ID].Store(wfSkipped)
	stop := 0
	if !d.cfg.wavefront {
		stop = td.Layer + 1
	}
	d.stop.Store(int32(stop))
	d.wakeAll()
}

// drainChain marks the worker's remaining leader entries skipped and
// wakes their followers; together with every other draining leader this
// guarantees all parked followers terminate.
func (wk *wfWorker) drainChain(rest []graph.TaskID) {
	d := wk.d
	for _, id := range rest {
		td := d.prec.Tasks[id]
		if td.Lo != wk.rank {
			continue
		}
		if d.state[id].CompareAndSwap(wfPending, wfSkipped) {
			for r := td.Lo + 1; r < td.Hi; r++ {
				d.wakeWorker(r)
			}
		}
	}
}

// wakeWorker deposits a recheck token for the rank's worker; a token
// already in flight is enough, so the send never blocks.
func (d *wfDispatcher) wakeWorker(rank int) {
	select {
	case d.workers[rank].wake <- struct{}{}:
	default:
	}
}

func (d *wfDispatcher) wakeAll() {
	for r := range d.workers {
		d.wakeWorker(r)
	}
}

// noteReady tracks the launch-backlog gauge: one more task is ready but
// not yet started by its leader.
func (d *wfDispatcher) noteReady() {
	n := d.ready.Add(1)
	for {
		pk := d.peakReady.Load()
		if n <= pk || d.peakReady.CompareAndSwap(pk, n) {
			break
		}
	}
}
