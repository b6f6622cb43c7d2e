// Package runtime executes M-task programs with goroutines in shared
// memory. It replaces the MPI processes of the paper's generated programs:
// every symbolic core is a goroutine, groups of cores communicate through
// group communicators offering the collective operations of the ODE
// solvers (barrier, broadcast, allgather), and every collective is counted
// by communicator category — global, group-based or orthogonal — so that
// the operation counts of Table 1 can be measured rather than assumed.
//
// The collective engine is built for low contention: synchronisation uses
// an atomics-based dissemination barrier (see barrier.go), data moves
// through per-member, cache-line-padded, double-buffered slots so every
// collective costs exactly one barrier round, and the *Into variants
// (BcastInto, AllgatherInto, AllgatherAsInto) write into caller-owned buffers
// so steady-state inner loops allocate nothing. Staging buffers belong to
// their communicator's slots, which the dispatcher's leaders keep from
// one attempt to the next.
//
// The runtime provides functional execution (real numerics, real
// synchronization); timing experiments at cluster scale use the simulator
// in internal/cluster instead.
package runtime

import (
	"errors"
	"fmt"
	stdruntime "runtime"
	"sort"
	"sync"

	"mtask/internal/obs"
)

// CommKind categorises a communicator for the operation statistics,
// following the three communication types of Section 4.2.
type CommKind int

const (
	// Global communicators span all cores of the program.
	Global CommKind = iota
	// Group communicators span the cores executing one M-task.
	Group
	// Orthogonal communicators connect cores with the same position
	// within concurrently executed M-tasks.
	Orthogonal
)

func (k CommKind) String() string {
	switch k {
	case Global:
		return "global"
	case Group:
		return "group"
	case Orthogonal:
		return "orthogonal"
	}
	return fmt.Sprintf("CommKind(%d)", int(k))
}

// Op identifies a collective operation type for the statistics.
type Op int

const (
	// OpBcast is a broadcast (the paper's Tbc).
	OpBcast Op = iota
	// OpAllgather is a multi-broadcast (the paper's Tag).
	OpAllgather
	// OpBarrier is a pure barrier.
	OpBarrier
	// OpReduce is an all-reduce.
	OpReduce
	// OpRedist is a data re-distribution between cooperating M-tasks
	// (inserted by the CM-task compiler); the paper accounts for these
	// separately from the collective operations of Table 1.
	OpRedist
)

func (o Op) String() string {
	switch o {
	case OpBcast:
		return "bcast"
	case OpAllgather:
		return "allgather"
	case OpBarrier:
		return "barrier"
	case OpReduce:
		return "reduce"
	case OpRedist:
		return "redistribution"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// AbortError is the panic value thrown by every collective call on an
// aborted communicator. The fault-tolerant executor (ExecuteCtx) recovers
// it and converts it to an error wrapping ErrCommAborted; code running
// outside the executor can recover it explicitly. Cause is the abort
// reason handed to Comm.Abort.
type AbortError struct {
	Cause error
}

func (e *AbortError) Error() string {
	if e.Cause == nil {
		return "runtime: communicator aborted"
	}
	return fmt.Sprintf("runtime: communicator aborted: %v", e.Cause)
}

// Unwrap exposes the abort cause to errors.Is/errors.As.
func (e *AbortError) Unwrap() error { return e.Cause }

// Is makes errors.Is(err, ErrCommAborted) match any AbortError.
func (e *AbortError) Is(target error) bool { return target == ErrCommAborted }

// ErrCommAborted is matched (via errors.Is) by every AbortError.
var ErrCommAborted = errors.New("runtime: communicator aborted")

// fslot is one member's staging slot for float64 collectives, padded to a
// cache line (two slice headers = 48 bytes + 16). Contributions are copied
// in before the barrier, so callers may reuse their own buffers the moment
// the collective returns — the staging copy is what lets the engine drop
// the old second "slot reuse" barrier round.
type fslot struct {
	cur []float64 // staged contribution of the in-flight collective
	buf []float64 // backing storage, grown to the largest contribution
	_   [16]byte
}

// stage copies data into the slot's backing storage.
func (s *fslot) stage(data []float64) {
	if cap(s.buf) < len(data) {
		s.buf = make([]float64, len(data), max(len(data), 64))
	}
	s.cur = s.buf[:len(data)]
	copy(s.cur, data)
}

// vslot is one member's padded slot for scalar reductions.
type vslot struct {
	v float64
	_ [56]byte
}

// aslot is one member's padded slot for opaque-value exchanges.
type aslot struct {
	v any
	_ [48]byte
}

// sslot is one member's padded slot for Split coordination.
type sslot struct {
	color, key, rank int
	_                [40]byte
}

// splitGen is one generation of Split calls on a parent communicator: the
// children by color plus a countdown of members that have not yet
// retrieved theirs. The registry entry is pruned the moment the countdown
// reaches zero, so repeated splits do not grow the parent's memory.
type splitGen struct {
	byColor   map[int]*commShared
	remaining int
}

// commShared is the state shared by all member handles of a communicator.
// The data-plane arrays (mems, slot arrays) are per-member and padded;
// members touch only their own entry until a barrier publishes it. Each
// slot array is double-buffered by the parity of the member's collective
// sequence number: a member rewrites a parity-p slot at sequence s+2,
// which it can only reach after completing the barrier of collective s+1,
// which every peer only enters after it finished reading collective s's
// slots — so one barrier round per collective is enough, also across the
// attempts of a reused group communicator (wfWorker.groupComm).
type commShared struct {
	kind   CommKind
	ranks  []int // world ranks of the members, in communicator rank order
	bar    treeBarrier
	mems   []memberState
	fslots [2][]fslot
	vslots [2][]vslot
	aslots [2][]aslot
	sslots [2][]sslot
	stats  *Stats
	rec    *obs.Recorder

	mu     sync.Mutex
	splits map[uint64]*splitGen // split sequence -> generation registry
	// children of this communicator, for the abort cascade. Unlike the
	// splits registry this list must grow for the communicator's
	// lifetime: a later Abort has to reach every child ever split off.
	children []*commShared
}

// barrierSpin returns the busy-spin budget of a barrier, none on a single
// P. GOMAXPROCS takes the scheduler's lock, so callers decide once per
// execution or World run and pass the budget to every communicator.
func barrierSpin() int {
	if stdruntime.GOMAXPROCS(0) == 1 {
		return 0
	}
	return barrierSpins
}

// newCommShared builds the shared state of a communicator over the given
// world ranks. World.Run and Split call it; the dispatcher calls it for a
// leader's first group communicator and after a failed attempt, and
// otherwise reuses the leader's last one (wfWorker.groupComm).
func newCommShared(kind CommKind, worldRanks []int, stats *Stats, rec *obs.Recorder, spin int) *commShared {
	s := new(commShared)
	s.reset(kind, worldRanks, stats, rec, spin)
	return s
}

// reset makes the communicator one over the given world ranks, as if
// newly built, keeping the capacity of its flag and slot arrays and its
// staging buffers. Callers must guarantee that no goroutine still holds a
// handle: the dispatcher resets only the communicator of a successful
// attempt, after every rank's share returned.
func (s *commShared) reset(kind CommKind, worldRanks []int, stats *Stats, rec *obs.Recorder, spin int) {
	n := len(worldRanks)
	s.kind = kind
	s.ranks = worldRanks
	s.stats = stats
	s.rec = rec
	s.bar.reset(n, spin)
	s.mems = fit(s.mems, n)
	clear(s.mems)
	for p := 0; p < 2; p++ {
		s.fslots[p] = fit(s.fslots[p], n) // stale staged data is never read
		s.vslots[p] = fit(s.vslots[p], n)
		s.aslots[p] = fit(s.aslots[p], n)
		clear(s.aslots[p]) // drop the previous member set's values
		s.sslots[p] = fit(s.sslots[p], n)
	}
	s.splits, s.children = nil, nil
}

// fit returns s resized to length n, reallocating only when the capacity
// is insufficient.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// abort poisons the communicator and, recursively, every communicator that
// was split off it, so a task blocked in a nested group collective is
// released as well.
func (s *commShared) abort(err error) {
	s.bar.abort(err)
	s.mu.Lock()
	kids := append([]*commShared(nil), s.children...)
	s.mu.Unlock()
	for _, k := range kids {
		k.abort(err)
	}
}

// Comm is one member's handle of a communicator. Handles are per-goroutine
// and must not be shared between goroutines.
type Comm struct {
	shared *commShared
	rank   int
	// ops counts this handle's collective calls by operation, feeding the
	// per-rank counter tracks of a tracing run. Handle-local (the handle is
	// per-goroutine), so the hot path needs no synchronisation.
	ops [numOps]uint32
}

// opCounterName pre-renders the "kind.op" counter names so the traced
// hot path never formats strings.
var opCounterName = func() (t [numCommKinds][numOps]string) {
	for k := range t {
		for o := range t[k] {
			t[k][o] = CommKind(k).String() + "." + Op(o).String()
		}
	}
	return
}()

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of members.
func (c *Comm) Size() int { return len(c.shared.ranks) }

// WorldRank returns the caller's rank within the world.
func (c *Comm) WorldRank() int { return c.shared.ranks[c.rank] }

// Kind returns the communicator category.
func (c *Comm) Kind() CommKind { return c.shared.kind }

// count records a collective once for the Stats (rank 0 reports) and,
// when a trace recorder is attached, samples the caller's per-rank
// cumulative operation counter.
func (c *Comm) count(op Op) {
	sh := c.shared
	if c.rank == 0 && sh.stats != nil {
		sh.stats.add(sh.kind, op)
	}
	if sh.rec != nil {
		c.ops[op]++
		sh.rec.CounterSample(opCounterName[sh.kind][op], "collective",
			sh.ranks[c.rank], sh.rec.Now(), float64(c.ops[op]))
	}
}

// advance issues the member's next collective and returns the slot parity
// to use for it. Members call collectives in lockstep (SPMD), so every
// member computes the same sequence number for the same collective.
func (c *Comm) advance() (ms *memberState, parity int) {
	ms = &c.shared.mems[c.rank]
	ms.seq++
	return ms, int(ms.seq & 1)
}

// Abort poisons the communicator and every communicator split off it:
// all members currently blocked in a collective are woken, and every
// current and future collective call panics with an *AbortError wrapping
// the given cause. The fault-tolerant executor uses Abort so a failed,
// panicked or timed-out task cannot deadlock its peers at a barrier; task
// bodies may also call it to broadcast an unrecoverable local failure.
func (c *Comm) Abort(cause error) {
	c.shared.abort(cause)
}

// Barrier synchronises all members. Under a trace recorder the time a
// member spends blocked in the barrier is recorded as a "barrier-wait"
// span on its world rank's timeline — the per-core wait times of the
// paper's imbalance analysis.
func (c *Comm) Barrier() {
	c.count(OpBarrier)
	sh := c.shared
	if len(sh.ranks) == 1 {
		// A singleton waits for nobody: no wait span (the per-rank
		// barrier counter from count() already marks the call).
		sh.bar.check()
		return
	}
	if sh.rec != nil {
		start := sh.rec.Now()
		sh.bar.wait(&sh.mems[c.rank], c.rank)
		sh.rec.Span("barrier-wait", "barrier", sh.ranks[c.rank], -1, -1, start, sh.rec.Now())
		return
	}
	sh.bar.wait(&sh.mems[c.rank], c.rank)
}

// Bcast broadcasts the root's slice to all members; every member returns
// its own copy (the root returns the original slice).
func (c *Comm) Bcast(root int, data []float64) []float64 {
	c.count(OpBcast)
	sh := c.shared
	if len(sh.ranks) == 1 {
		sh.bar.check()
		return data
	}
	ms, p := c.advance()
	if c.rank == root {
		sh.fslots[p][root].stage(data)
	}
	sh.bar.wait(ms, c.rank)
	if c.rank == root {
		return data
	}
	src := sh.fslots[p][root].cur
	out := make([]float64, len(src))
	copy(out, src)
	return out
}

// BcastInto broadcasts the root's buffer into every member's buffer
// without allocating. All members must pass buffers of the root's length;
// the root's buffer is left untouched and may be reused (or even mutated)
// as soon as the call returns, because the data is staged before the
// barrier.
func (c *Comm) BcastInto(root int, buf []float64) {
	c.count(OpBcast)
	sh := c.shared
	if len(sh.ranks) == 1 {
		sh.bar.check()
		return
	}
	ms, p := c.advance()
	if c.rank == root {
		sh.fslots[p][root].stage(buf)
	}
	sh.bar.wait(ms, c.rank)
	if c.rank == root {
		return
	}
	src := sh.fslots[p][root].cur
	if len(src) != len(buf) {
		panic(fmt.Sprintf("runtime: BcastInto length mismatch: root staged %d values, member %d passed %d", len(src), c.rank, len(buf)))
	}
	copy(buf, src)
}

// Allgather concatenates every member's contribution in rank order; each
// member returns its own copy of the result (the paper's multi-broadcast,
// MPI_Allgather).
func (c *Comm) Allgather(contrib []float64) []float64 {
	return c.AllgatherAsInto(contrib, nil, OpAllgather)
}

// AllgatherInto is Allgather writing into dst, which is grown only if its
// capacity is insufficient; it returns the (possibly re-allocated) result
// slice. dst may alias contrib: contributions are staged before the
// barrier, so in-place gathers such as y = AllgatherInto(block, y) are
// safe.
func (c *Comm) AllgatherInto(contrib, dst []float64) []float64 {
	return c.AllgatherAsInto(contrib, dst, OpAllgather)
}

// AllgatherAsInto is AllgatherInto recorded under the given operation
// category; it implements the compiler-inserted data re-distributions
// (OpRedist), which the paper accounts for separately from the collective
// operations.
func (c *Comm) AllgatherAsInto(contrib, dst []float64, op Op) []float64 {
	c.count(op)
	sh := c.shared
	if len(sh.ranks) == 1 {
		sh.bar.check()
		dst = fit(dst, len(contrib))
		copy(dst, contrib)
		return dst
	}
	ms, p := c.advance()
	slots := sh.fslots[p]
	slots[c.rank].stage(contrib)
	sh.bar.wait(ms, c.rank)
	total := 0
	for i := range slots {
		total += len(slots[i].cur)
	}
	dst = fit(dst, total)
	off := 0
	for i := range slots {
		off += copy(dst[off:], slots[i].cur)
	}
	return dst
}

// ExchangeAny gathers one arbitrary value per member in rank order (an
// allgather over opaque values); used by the dynamic task library for
// control data such as error states. Counted as a barrier, not as one of
// Table 1's data collectives.
func (c *Comm) ExchangeAny(v any) []any {
	c.count(OpBarrier)
	sh := c.shared
	if len(sh.ranks) == 1 {
		sh.bar.check()
		return []any{v}
	}
	ms, p := c.advance()
	slots := sh.aslots[p]
	slots[c.rank].v = v
	sh.bar.wait(ms, c.rank)
	out := make([]any, len(slots))
	for i := range slots {
		out[i] = slots[i].v
	}
	return out
}

// AllreduceMax returns the maximum of the members' values.
func (c *Comm) AllreduceMax(v float64) float64 {
	c.count(OpReduce)
	sh := c.shared
	if len(sh.ranks) == 1 {
		sh.bar.check()
		return v
	}
	ms, p := c.advance()
	slots := sh.vslots[p]
	slots[c.rank].v = v
	sh.bar.wait(ms, c.rank)
	max := v
	for i := range slots {
		if x := slots[i].v; x > max {
			max = x
		}
	}
	return max
}

// AllreduceSum returns the sum of the members' values.
func (c *Comm) AllreduceSum(v float64) float64 {
	c.count(OpReduce)
	sh := c.shared
	if len(sh.ranks) == 1 {
		sh.bar.check()
		return v
	}
	ms, p := c.advance()
	slots := sh.vslots[p]
	slots[c.rank].v = v
	sh.bar.wait(ms, c.rank)
	sum := 0.0
	for i := range slots {
		sum += slots[i].v
	}
	return sum
}

// Split partitions the communicator like MPI_Comm_split: members calling
// with the same color form a new communicator of the given kind, ordered
// by key (ties by current rank). All members must call Split. One barrier
// round coordinates the whole split: members publish (color, key) in their
// slots, synchronise, and then deterministically compute their color's
// member list; the lowest-ranked member of each color allocates the shared
// state and the others retrieve it from the parent's registry, which is
// pruned as soon as the last member has retrieved its child.
func (c *Comm) Split(color, key int, kind CommKind) *Comm {
	sh := c.shared
	if len(sh.ranks) == 1 {
		sh.bar.check()
		child := newCommShared(kind, []int{sh.ranks[0]}, sh.stats, sh.rec, sh.bar.spin)
		sh.mu.Lock()
		sh.children = append(sh.children, child)
		sh.mu.Unlock()
		return &Comm{shared: child, rank: 0}
	}
	ms, p := c.advance()
	genKey := ms.seq // identical on every member: collectives are lockstep
	sh.sslots[p][c.rank] = sslot{color: color, key: key, rank: c.rank}
	sh.bar.wait(ms, c.rank)

	// Deterministically compute the member list of my color.
	var mine []sslot
	for i := range sh.sslots[p] {
		if m := sh.sslots[p][i]; m.color == color {
			mine = append(mine, m)
		}
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].key != mine[j].key {
			return mine[i].key < mine[j].key
		}
		return mine[i].rank < mine[j].rank
	})
	myIdx := -1
	worldRanks := make([]int, len(mine))
	for i, m := range mine {
		worldRanks[i] = sh.ranks[m.rank]
		if m.rank == c.rank {
			myIdx = i
		}
	}

	sh.mu.Lock()
	if sh.splits == nil {
		sh.splits = make(map[uint64]*splitGen)
	}
	gen := sh.splits[genKey]
	if gen == nil {
		gen = &splitGen{byColor: make(map[int]*commShared), remaining: len(sh.ranks)}
		sh.splits[genKey] = gen
	}
	child := gen.byColor[color]
	if child == nil {
		child = newCommShared(kind, worldRanks, sh.stats, sh.rec, sh.bar.spin)
		gen.byColor[color] = child
		sh.children = append(sh.children, child)
	}
	gen.remaining--
	if gen.remaining == 0 {
		// Every member has retrieved its child: prune the registry
		// entry so repeated splits cannot grow memory without bound.
		delete(sh.splits, genKey)
	}
	sh.mu.Unlock()
	return &Comm{shared: child, rank: myIdx}
}
