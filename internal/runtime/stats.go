package runtime

import "sync/atomic"

// numCommKinds and numOps size the fixed Stats counter array; they must
// cover every CommKind and Op constant.
const (
	numCommKinds = int(Orthogonal) + 1
	numOps       = int(OpRedist) + 1
)

// Stats counts collective operations by communicator kind and operation.
// Each collective is counted once (not once per participating core), by
// the communicator's rank 0. The counters are a fixed [kinds][ops] array of
// atomic.Int64, so recording an operation is one atomic increment instead
// of a global mutex acquisition plus a map lookup. A dispatched group
// communicator counts into its leader worker's Stats (wfStats.add).
type Stats struct {
	counts [numCommKinds][numOps]atomic.Int64
}

// add records one collective.
func (s *Stats) add(kind CommKind, op Op) {
	if kind < 0 || int(kind) >= numCommKinds || op < 0 || int(op) >= numOps {
		return
	}
	s.counts[kind][op].Add(1)
}

// addAll adds the counts of from to s; the sum is exact once no
// collective counts into from any more.
func (s *Stats) addAll(from *Stats) {
	for k := range from.counts {
		for o := range from.counts[k] {
			if n := from.counts[k][o].Load(); n != 0 {
				s.counts[k][o].Add(n)
			}
		}
	}
}

// Count returns the number of recorded collectives of the given kind/op.
func (s *Stats) Count(kind CommKind, op Op) int {
	if kind < 0 || int(kind) >= numCommKinds || op < 0 || int(op) >= numOps {
		return 0
	}
	return int(s.counts[kind][op].Load())
}

// Reset clears all counters.
func (s *Stats) Reset() {
	for k := range s.counts {
		for o := range s.counts[k] {
			s.counts[k][o].Store(0)
		}
	}
}

// Total returns the total number of collectives of any kind.
func (s *Stats) Total() int {
	t := int64(0)
	for k := range s.counts {
		for o := range s.counts[k] {
			t += s.counts[k][o].Load()
		}
	}
	return int(t)
}
