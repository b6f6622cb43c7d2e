package runtime

import (
	stdruntime "runtime"
	"sync/atomic"
	"time"
)

// The collective engine synchronises with a dissemination barrier built on
// atomics instead of the former central mutex + condition variable: member
// i completes ceil(log2 n) signalling rounds, in round r storing its
// generation into the flag of member (i+2^r) mod n and waiting for its own
// round-r flag to reach the generation. Every flag is written by exactly
// one peer and padded to its own cache line, so a barrier round costs
// log(n) uncontended atomic operations per member instead of n lock
// acquisitions on one mutex — matching the logarithmic collective costs
// (Tbc/Tag ~ log q) the paper's cost model assumes (Section 3.1).
//
// Waiting is a staged poll: a short busy spin, then cooperative yields,
// then micro-sleeps, so parked members neither burn a core while a peer
// computes nor pay a wakeup syscall on the fast path. The spin budget
// (none on a single P) is decided by barrierSpin once per execution or
// World run, not per communicator, and passed to reset; split-off
// communicators inherit their parent's.

// cacheLinePad pads hot per-member fields to 64-byte lines to prevent
// false sharing between members.
const (
	barrierSpins  = 64                    // busy-spin iterations (multicore only)
	barrierYields = 128                   // cooperative yields before sleeping
	barrierSleep  = 20 * time.Microsecond // poll interval once parked
)

// barrierFlag is one member's incoming signal slot for one round, alone on
// its cache line. It carries the barrier generation of the signalling
// peer and only ever increases.
type barrierFlag struct {
	v atomic.Uint64
	_ [56]byte
}

// memberState is the per-member lockstep state: the member's barrier
// generation and its collective sequence number (which selects the slot
// parity and keys split generations). Only the owning member reads or
// writes it, so it needs no atomics — padding keeps neighbours off the
// line.
type memberState struct {
	gen uint64 // completed barrier generations
	seq uint64 // collective operations issued (slot parity = seq&1)
	_   [48]byte
}

// abortCause carries the poison reason; stored once via CAS so the first
// cause wins.
type abortCause struct{ err error }

// treeBarrier is the reusable dissemination barrier of a communicator. An
// aborted barrier makes every current and future wait panic with an
// *AbortError: current waiters observe the poison on their next poll, so
// an abort "wakes" spinners exactly as the old broadcast woke sleepers.
type treeBarrier struct {
	n      int
	rounds int
	spin   int
	flags  []barrierFlag // n*rounds; flags[m*rounds+r] written by (m-2^r+n)%n
	poison atomic.Pointer[abortCause]
}

// barrierRounds returns ceil(log2(n)), the dissemination round count.
func barrierRounds(n int) int {
	r := 0
	for 1<<r < n {
		r++
	}
	return r
}

// reset prepares the barrier for n members with the given busy-spin
// budget, reusing the flag array when a communicator is reset in place.
func (b *treeBarrier) reset(n, spin int) {
	b.n = n
	b.rounds = barrierRounds(n)
	b.spin = spin
	need := n * b.rounds
	if cap(b.flags) < need {
		b.flags = make([]barrierFlag, need)
	} else {
		b.flags = b.flags[:need]
		for i := range b.flags {
			b.flags[i].v.Store(0)
		}
	}
	b.poison.Store(nil)
}

// abort poisons the barrier (first cause wins); nil defaults to
// ErrCommAborted.
func (b *treeBarrier) abort(err error) {
	if err == nil {
		err = ErrCommAborted
	}
	b.poison.CompareAndSwap(nil, &abortCause{err: err})
}

// check panics with an *AbortError if the barrier is poisoned.
func (b *treeBarrier) check() {
	if c := b.poison.Load(); c != nil {
		panic(&AbortError{Cause: c.err})
	}
}

// wait completes one barrier generation for the member that owns ms. All
// members must call wait the same number of times (SPMD discipline). When
// wait returns, every member has entered this generation, and — by the
// transitivity of the atomic signal chains — every write a member issued
// before its wait is visible to every other member after its wait.
func (b *treeBarrier) wait(ms *memberState, self int) {
	b.check()
	ms.gen++
	if b.rounds == 0 { // singleton: nothing to synchronise
		return
	}
	g := ms.gen
	for r := 0; r < b.rounds; r++ {
		partner := self + 1<<r
		if partner >= b.n {
			partner -= b.n
		}
		b.flags[partner*b.rounds+r].v.Store(g)
		f := &b.flags[self*b.rounds+r].v
		for spins := 0; f.Load() < g; spins++ {
			b.check()
			switch {
			case spins < b.spin:
				// busy spin
			case spins < b.spin+barrierYields:
				stdruntime.Gosched()
			default:
				time.Sleep(barrierSleep)
			}
		}
	}
}
