package runtime

import (
	"sync"

	"mtask/internal/obs"
)

// lazyGlobal defers building a communicator's shared state until a member
// actually issues an operation on it. The fault-tolerant executor hands
// every task rank a per-layer global communicator, but most bodies only
// ever use their group communicator — with the lazy shell, a layer whose
// bodies never touch TaskCtx.Global allocates (and abort-poisons) nothing.
//
// A plain sync.Once is not enough: the layer-end abort can race a
// straggler of an abandoned attempt that touches the global for the first
// time *after* the layer finished. The mutex makes the two orders
// equivalent — create-then-abort, or record-the-abort and create the
// communicator pre-poisoned — so a straggler is always released instead of
// blocking forever in a collective no peer will join.
type lazyGlobal struct {
	kind  CommKind
	ranks []int
	stats *Stats
	rec   *obs.Recorder
	spin  int

	mu      sync.Mutex
	sh      *commShared
	aborted bool
	cause   error
}

// newLazyGlobal prepares a lazy communicator shell over the given world
// ranks; no shared state is allocated until the first get.
func newLazyGlobal(kind CommKind, worldRanks []int, stats *Stats, rec *obs.Recorder, spin int) *lazyGlobal {
	return &lazyGlobal{kind: kind, ranks: worldRanks, stats: stats, rec: rec, spin: spin}
}

// get returns the communicator's shared state, creating it on first use.
// If abort was called before the first use, the state is created already
// poisoned, so every collective on it panics with an *AbortError.
func (lg *lazyGlobal) get() *commShared {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if lg.sh == nil {
		lg.sh = newCommShared(lg.kind, lg.ranks, lg.stats, lg.rec, lg.spin)
		if lg.aborted {
			lg.sh.abort(lg.cause)
		}
	}
	return lg.sh
}

// abort poisons the communicator if it was ever created, and arranges for
// a later first use to create it pre-poisoned. The first cause wins,
// matching commShared.abort.
func (lg *lazyGlobal) abort(err error) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if !lg.aborted {
		lg.aborted = true
		lg.cause = err
	}
	if lg.sh != nil {
		lg.sh.abort(err)
	}
}
