package runtime

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// Tests pinning the dissemination-barrier internals: abort delivery to
// waiters parked at different tree levels, the singleton fast paths, the
// split-registry pruning, and the one-barrier-round-per-collective
// invariant.

// TestTreeBarrierAbortMixedLevels parks ranks 1..7 of an 8-member barrier
// at mixed dissemination rounds (with rank 0 absent, rank 1 blocks in
// round 0, rank 2 in round 1, rank 4 in round 2, ... — each at the first
// round whose signal chain needs rank 0) and then aborts from rank 0. All
// waiters must unwind with an *AbortError instead of spinning forever.
func TestTreeBarrierAbortMixedLevels(t *testing.T) {
	const p = 8
	var stats Stats
	sh := newCommShared(Global, identityRanks(p), &stats, nil, barrierSpin())
	cause := errors.New("rank 0 bailed")
	var wg sync.WaitGroup
	errs := make([]error, p)
	mustFinish(t, 10*time.Second, func() {
		for r := 1; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				defer func() {
					if v := recover(); v != nil {
						ae, ok := v.(*AbortError)
						if !ok {
							panic(v)
						}
						errs[r] = ae.Cause
					}
				}()
				c := &Comm{shared: sh, rank: r}
				c.Barrier()
			}(r)
		}
		// Let the waiters reach their parking rounds, then poison.
		time.Sleep(20 * time.Millisecond)
		(&Comm{shared: sh, rank: 0}).Abort(cause)
		wg.Wait()
	})
	for r := 1; r < p; r++ {
		if !errors.Is(errs[r], cause) {
			t.Errorf("rank %d: got %v, want abort cause", r, errs[r])
		}
	}
	// The poison is sticky: every later operation must refuse immediately,
	// including the *Into paths and Split.
	for name, fn := range map[string]func(c *Comm){
		"barrier":   func(c *Comm) { c.Barrier() },
		"bcastInto": func(c *Comm) { c.BcastInto(0, []float64{1}) },
		"split":     func(c *Comm) { c.Split(0, 0, Group) },
	} {
		func() {
			defer func() {
				v := recover()
				if v == nil {
					t.Errorf("%s after abort: no panic", name)
					return
				}
				if _, ok := v.(*AbortError); !ok {
					t.Errorf("%s after abort: panic %v, want *AbortError", name, v)
				}
			}()
			fn(&Comm{shared: sh, rank: 1})
		}()
	}
}

// TestTreeBarrierAbortDuringDataCollectives aborts while peers are parked
// inside the single barrier round of Allgather and of Split (not just
// Barrier) — the staged slots must not keep anyone blocked.
func TestTreeBarrierAbortDuringDataCollectives(t *testing.T) {
	for name, fn := range map[string]func(c *Comm){
		"allgatherInto": func(c *Comm) { c.AllgatherInto([]float64{float64(c.Rank())}, nil) },
		"split":         func(c *Comm) { c.Split(c.Rank()%2, c.Rank(), Group) },
	} {
		t.Run(name, func(t *testing.T) {
			const p = 8
			var stats Stats
			sh := newCommShared(Global, identityRanks(p), &stats, nil, barrierSpin())
			cause := errors.New("injected")
			var wg sync.WaitGroup
			aborted := make([]bool, p)
			mustFinish(t, 10*time.Second, func() {
				for r := 1; r < p; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						defer func() {
							if v := recover(); v != nil {
								if _, ok := v.(*AbortError); !ok {
									panic(v)
								}
								aborted[r] = true
							}
						}()
						fn(&Comm{shared: sh, rank: r})
					}(r)
				}
				time.Sleep(20 * time.Millisecond)
				(&Comm{shared: sh, rank: 0}).Abort(cause)
				wg.Wait()
			})
			for r := 1; r < p; r++ {
				if !aborted[r] {
					t.Errorf("rank %d not released from %s", r, name)
				}
			}
		})
	}
}

// TestSingletonNoSynchronization is the regression test for the size-1
// fast paths: a singleton communicator must complete every collective
// without a single barrier round — its generation counter, operation
// sequence and barrier flags all stay at zero.
func TestSingletonNoSynchronization(t *testing.T) {
	var stats Stats
	sh := newCommShared(Global, []int{0}, &stats, nil, barrierSpin())
	c := &Comm{shared: sh, rank: 0}

	c.Barrier()
	if got := c.Bcast(0, []float64{1, 2}); len(got) != 2 {
		t.Fatalf("bcast: %v", got)
	}
	buf := []float64{3, 4}
	c.BcastInto(0, buf)
	if got := c.Allgather([]float64{5}); len(got) != 1 || got[0] != 5 {
		t.Fatalf("allgather: %v", got)
	}
	if got := c.AllgatherInto([]float64{6}, nil); len(got) != 1 || got[0] != 6 {
		t.Fatalf("allgatherInto: %v", got)
	}
	if got := c.ExchangeAny("x"); len(got) != 1 || got[0] != "x" {
		t.Fatalf("exchangeAny: %v", got)
	}
	if got := c.AllreduceSum(8); got != 8 {
		t.Fatalf("allreduceSum: %v", got)
	}
	if got := c.AllreduceMax(9); got != 9 {
		t.Fatalf("allreduceMax: %v", got)
	}
	child := c.Split(0, 0, Group)
	if child.Size() != 1 || child.Rank() != 0 {
		t.Fatalf("split: size %d rank %d", child.Size(), child.Rank())
	}

	if g := sh.mems[0].gen; g != 0 {
		t.Errorf("singleton ran %d barrier generations, want 0", g)
	}
	if s := sh.mems[0].seq; s != 0 {
		t.Errorf("singleton advanced %d op slots, want 0", s)
	}
	for i := range sh.bar.flags {
		if v := sh.bar.flags[i].v.Load(); v != 0 {
			t.Errorf("barrier flag %d touched: %d", i, v)
		}
	}
	// Accounting must still run on the fast paths (Table 1 counts);
	// ExchangeAny counts as a barrier, so OpBarrier is 2.
	if n := stats.Count(Global, OpBarrier); n != 2 {
		t.Errorf("barrier count %d, want 2", n)
	}
	if n := stats.Count(Global, OpBcast); n != 2 {
		t.Errorf("bcast count %d, want 2", n)
	}
}

// TestSplitRegistryPruned runs repeated Splits and checks the
// rendezvous registry is emptied once every member has retrieved its
// child (the old implementation leaked one map entry per generation),
// while the children list keeps growing for abort cascading.
func TestSplitRegistryPruned(t *testing.T) {
	const p, rounds = 8, 10
	var stats Stats
	sh := newCommShared(Global, identityRanks(p), &stats, nil, barrierSpin())
	var wg sync.WaitGroup
	mustFinish(t, 10*time.Second, func() {
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				c := &Comm{shared: sh, rank: r}
				for i := 0; i < rounds; i++ {
					g := c.Split(r%2, r, Group)
					if g.Size() != p/2 {
						t.Errorf("round %d rank %d: group size %d", i, r, g.Size())
					}
				}
			}(r)
		}
		wg.Wait()
	})
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.splits) != 0 {
		t.Errorf("split registry leaked %d generations, want 0", len(sh.splits))
	}
	if want := rounds * 2; len(sh.children) != want {
		t.Errorf("children list has %d entries, want %d", len(sh.children), want)
	}
}

// TestOneBarrierRoundPerCollective pins the headline synchronisation
// saving: every value-returning collective costs exactly one barrier
// generation (the old engine spent two — one to publish, one to release
// the slots for reuse) and Split costs one (down from three).
func TestOneBarrierRoundPerCollective(t *testing.T) {
	const p = 4
	var stats Stats
	sh := newCommShared(Global, identityRanks(p), &stats, nil, barrierSpin())
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := &Comm{shared: sh, rank: r}
			c.Barrier()                        // 1
			c.Bcast(0, []float64{1})           // 2
			c.Allgather([]float64{float64(r)}) // 3
			c.AllreduceSum(1)                  // 4
			c.AllreduceMax(float64(r))         // 5
			c.ExchangeAny(r)                   // 6
			c.Split(r%2, r, Group)             // 7
		}(r)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		if g := sh.mems[r].gen; g != 7 {
			t.Errorf("rank %d ran %d barrier generations for 7 collectives, want 7", r, g)
		}
	}
}
