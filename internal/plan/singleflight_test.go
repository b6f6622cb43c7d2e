package plan

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mtask/internal/arch"
	"mtask/internal/core"
	"mtask/internal/ode"
)

// TestSingleflightOneColdPlan is the coalescing acceptance property: N
// concurrent planners on one fingerprint produce exactly one cold plan,
// and every caller receives the identical mapping object (which implies
// bit-identical schedules). Run under -race.
func TestSingleflightOneColdPlan(t *testing.T) {
	machine := arch.CHiC().SubsetCores(64)
	g := ode.BuildPABGraph(40000, 600, 8, 2, 4)
	p := New()
	ctx := context.Background()

	const clients = 32
	var (
		start sync.WaitGroup
		wg    sync.WaitGroup
		mu    sync.Mutex
		infos []Info
		maps  []*core.Mapping
	)
	start.Add(1)
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func() {
			defer wg.Done()
			var info Info
			start.Wait()
			mp, err := p.Plan(ctx, g, machine, WithInfo(&info))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
			infos = append(infos, info)
			maps = append(maps, mp)
		}()
	}
	start.Done()
	wg.Wait()

	cold, coalesced, hits := 0, 0, 0
	for _, info := range infos {
		switch {
		case info.Cold:
			cold++
		case info.Coalesced:
			coalesced++
		case info.CacheHit:
			hits++
		default:
			t.Error("request served by no path at all")
		}
	}
	if cold != 1 {
		t.Fatalf("%d cold plans for one fingerprint, want exactly 1 (coalesced %d, hits %d)",
			cold, coalesced, hits)
	}
	if coalesced+hits != clients-1 {
		t.Fatalf("coalesced %d + hits %d != %d", coalesced, hits, clients-1)
	}
	for _, mp := range maps[1:] {
		if mp != maps[0] {
			t.Fatal("coalesced callers received different mapping objects")
		}
	}
}

// TestSingleflightCanceledLeaderDoesNotPoison installs a fake in-flight
// leader, lets a follower block on it, and finishes the flight with a
// cancellation error: the follower's context is live, so it must not
// inherit the cancellation — it retries, leads its own flight and plans
// successfully.
func TestSingleflightCanceledLeaderDoesNotPoison(t *testing.T) {
	machine := arch.CHiC().SubsetCores(32)
	g := ode.BuildPABGraph(4000, 600, 8, 2, 2)
	p := New()

	key := Key{
		Graph:        GraphFingerprint(g),
		Machine:      MachineFingerprint(machine),
		Strategy:     core.Consecutive{}.Name(),
		P:            machine.TotalCores(),
		ModelMachine: MachineFingerprint(machine),
	}
	f, leader := p.flights.join(key)
	if !leader {
		t.Fatal("test did not acquire flight leadership")
	}

	var info Info
	done := make(chan error, 1)
	go func() {
		_, err := p.Plan(context.Background(), g, machine, WithInfo(&info))
		done <- err
	}()

	// Give the follower time to reach the flight wait, then fail the
	// flight the way a canceled leader would.
	time.Sleep(50 * time.Millisecond)
	p.flights.finish(key, f, (*core.Mapping)(nil),
		fmt.Errorf("planning %q: %w (context canceled)", g.Name, core.ErrCanceled))

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("follower inherited the leader's cancellation: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("follower never completed")
	}
	if !info.Cold && !info.CacheHit {
		t.Fatalf("follower should have replanned (or hit the cache) after the canceled flight, info=%+v", info)
	}

	// A caller whose own context is canceled still fails with ErrCanceled.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Plan(canceled, g, machine, WithoutCache()); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("canceled caller: got %v, want ErrCanceled", err)
	}
}

// selfCancelKey smuggles each client's own cancel func into the cold
// plan, so the chaos hook can kill whichever client won leadership.
type selfCancelKey struct{}

// TestSingleflightChaosKilledLeaders is the re-election property under
// chaos: the first K singleflight leaders are killed mid-plan (their own
// contexts canceled, the way a vanished client dies), and every
// surviving follower must still receive exactly one live re-elected cold
// plan — the identical mapping, never the dead leaders' cancellation.
// Run under -race.
func TestSingleflightChaosKilledLeaders(t *testing.T) {
	machine := arch.CHiC().SubsetCores(32)
	g := ode.BuildPABGraph(4000, 600, 8, 2, 3)

	const (
		clients = 24
		kills   = 3
	)
	var killed atomic.Int32
	p := New(WithColdPlanHook(func(ctx context.Context) error {
		if int(killed.Add(1)) <= kills {
			if cancel, ok := ctx.Value(selfCancelKey{}).(context.CancelFunc); ok {
				cancel()
			}
			<-ctx.Done()
			// Return nil: the canonical kill path is the planner itself
			// observing the dead context, exactly like a real vanished
			// leader mid-search.
		}
		return nil
	}))

	var (
		start sync.WaitGroup
		wg    sync.WaitGroup
		mu    sync.Mutex
		fails []error
		infos []Info
		maps  []*core.Mapping
	)
	start.Add(1)
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctx = context.WithValue(ctx, selfCancelKey{}, cancel)
			var info Info
			start.Wait()
			mp, err := p.Plan(ctx, g, machine, WithInfo(&info))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				fails = append(fails, err)
				return
			}
			infos = append(infos, info)
			maps = append(maps, mp)
		}()
	}
	start.Done()
	wg.Wait()

	// Exactly the killed leaders fail, and they fail as cancellations —
	// visible both as the package sentinel and the context cause.
	if len(fails) != kills {
		t.Fatalf("%d failures, want exactly the %d killed leaders: %v", len(fails), kills, fails)
	}
	for _, err := range fails {
		if !errors.Is(err, core.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("killed leader error %v must wrap core.ErrCanceled and context.Canceled", err)
		}
	}

	// Every survivor holds the same mapping from the one live cold plan.
	if len(maps) != clients-kills {
		t.Fatalf("%d survivors, want %d", len(maps), clients-kills)
	}
	for _, mp := range maps[1:] {
		if mp != maps[0] {
			t.Fatal("survivors received different mapping objects")
		}
	}
	cold := 0
	for _, info := range infos {
		switch {
		case info.Cold:
			cold++
		case info.Coalesced, info.CacheHit:
		default:
			t.Error("survivor served by no path at all")
		}
	}
	if cold != 1 {
		t.Fatalf("%d live cold plans, want exactly 1", cold)
	}
}

// TestSingleflightPanickedLeaderReElection kills leaders the violent
// way: the cold plan panics. The flight must still finish (no follower
// may hang on a dead leader), the panicking caller gets ErrPlanPanic,
// and followers re-elect until a live plan lands. Run under -race.
func TestSingleflightPanickedLeaderReElection(t *testing.T) {
	machine := arch.CHiC().SubsetCores(32)
	g := ode.BuildPABGraph(4000, 600, 8, 2, 5)

	const (
		clients = 16
		panics  = 2
	)
	var attempts atomic.Int32
	p := New(WithColdPlanHook(func(ctx context.Context) error {
		if int(attempts.Add(1)) <= panics {
			panic("chaos: leader killed mid-plan")
		}
		return nil
	}))

	var (
		start sync.WaitGroup
		wg    sync.WaitGroup
		mu    sync.Mutex
		fails []error
		maps  []*core.Mapping
	)
	start.Add(1)
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func() {
			defer wg.Done()
			start.Wait()
			mp, err := p.Plan(context.Background(), g, machine)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				fails = append(fails, err)
				return
			}
			maps = append(maps, mp)
		}()
	}
	start.Done()
	wg.Wait()

	if len(fails) != panics {
		t.Fatalf("%d failures, want exactly the %d panicked leaders: %v", len(fails), panics, fails)
	}
	for _, err := range fails {
		if !errors.Is(err, ErrPlanPanic) {
			t.Fatalf("panicked leader error %v must wrap ErrPlanPanic", err)
		}
	}
	if len(maps) != clients-panics {
		t.Fatalf("%d survivors, want %d", len(maps), clients-panics)
	}
	for _, mp := range maps[1:] {
		if mp != maps[0] {
			t.Fatal("survivors received different mapping objects")
		}
	}
}

// TestShardDistribution checks that realistic keys spread over the
// shards instead of piling onto one mutex.
func TestShardDistribution(t *testing.T) {
	c := NewShardedCache(1024, 16)
	if len(c.shards) != 16 {
		t.Fatalf("%d shards, want 16", len(c.shards))
	}
	const n = 512
	for i := 0; i < n; i++ {
		// Vary the graph fingerprint the way distinct programs would.
		k := Key{Graph: uint64(i)*0x100000001b3 + 17, Machine: 7, P: 64, Strategy: "consecutive"}
		c.Add(k, &core.Mapping{})
	}
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
	stats := c.ShardStats()
	nonEmpty, max := 0, 0
	for _, st := range stats {
		if st.Len > 0 {
			nonEmpty++
		}
		if st.Len > max {
			max = st.Len
		}
	}
	if nonEmpty < 13 {
		t.Fatalf("only %d of 16 shards used: %+v", nonEmpty, stats)
	}
	if max > 4*n/16 {
		t.Fatalf("hottest shard holds %d of %d entries — hash is clumping: %+v", max, n, stats)
	}
}

// TestShardedEviction checks the per-shard capacity bound: the cache
// never exceeds its total capacity, and the newest entries survive.
func TestShardedEviction(t *testing.T) {
	c := NewShardedCache(32, 4) // 8 mappings per shard
	mk := func(i int) Key {
		return Key{Graph: uint64(i)*0x100000001b3 + 3, P: 64}
	}
	const n = 200
	for i := 0; i < n; i++ {
		c.Add(mk(i), &core.Mapping{})
	}
	if c.Len() > 32 {
		t.Fatalf("Len = %d exceeds capacity 32", c.Len())
	}
	// Enough insertions ran that every shard must be at capacity.
	for i, st := range c.ShardStats() {
		if st.Len != 8 {
			t.Fatalf("shard %d holds %d entries, want 8", i, st.Len)
		}
	}
	// The very last insertion is necessarily resident.
	if _, ok := c.Get(mk(n - 1)); !ok {
		t.Fatal("most recent entry evicted")
	}
	// The oldest ones are necessarily gone (each shard saw ~50 keys for
	// 8 slots, so key 0 cannot have survived LRU eviction).
	if _, ok := c.Get(mk(0)); ok {
		t.Fatal("oldest entry survived eviction")
	}
}

// TestPeekNeutral checks that Peek neither counts traffic nor refreshes
// recency — it must not perturb what Stats and LRU order measure.
func TestPeekNeutral(t *testing.T) {
	c := NewShardedCache(2, 1)
	k1, k2, k3 := Key{Graph: 1}, Key{Graph: 2}, Key{Graph: 3}
	c.Add(k1, &core.Mapping{})
	c.Add(k2, &core.Mapping{})

	if _, ok := c.Peek(k1); !ok {
		t.Fatal("peek missed a resident key")
	}
	if _, ok := c.Peek(Key{Graph: 99}); ok {
		t.Fatal("peek found a phantom key")
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatalf("peek counted traffic: %d hits / %d misses", h, m)
	}
	// Peek did not refresh k1, so k1 (not k2) is evicted by the next add.
	c.Add(k3, &core.Mapping{})
	if _, ok := c.Peek(k1); ok {
		t.Fatal("peek refreshed recency: k1 should have been the LRU victim")
	}
	if _, ok := c.Peek(k2); !ok {
		t.Fatal("k2 wrongly evicted")
	}
}
