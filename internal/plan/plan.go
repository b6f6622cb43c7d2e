// Package plan implements the concurrent, cache-backed planning engine on
// top of the paper's combined scheduling and mapping (internal/core): a
// Planner turns an M-task graph and a machine description into a physical
// mapping, searching the per-layer group counts of Algorithm 1 on a
// bounded worker pool and serving repeated requests from a
// fingerprint-sharded LRU schedule cache keyed by graph and machine
// fingerprints. Concurrent cold plans of the same key
// are coalesced: one request leads the search, the others adopt its
// result (singleflight), so a burst of identical requests costs one
// planner invocation.
//
// The engine is deliberately deterministic: the search breaks ties towards
// the smallest group count whatever its worker count, so a Planner
// produces bit-identical schedules regardless of its parallelism, and a
// cache hit or a coalesced request returns the same mapping a cold plan
// would compute.
package plan

import (
	"context"
	"errors"
	"fmt"

	"mtask/internal/arch"
	"mtask/internal/core"
	"mtask/internal/cost"
	"mtask/internal/graph"
	"mtask/internal/obs"
)

// Options collects the resolved knobs of one planning request. The zero
// value is completed by Defaults; callers normally use Option functions.
type Options struct {
	// Strategy is the mapping strategy (default core.Consecutive).
	Strategy core.Strategy

	// Cores is the number of symbolic cores to schedule on; 0 means all
	// cores of the machine.
	Cores int

	// Model overrides the cost model (default: a plain model of the
	// target machine).
	Model *cost.Model

	// Parallelism caps the worker count of the group-count search; 0
	// means GOMAXPROCS, 1 runs it on one search worker (see
	// core.Scheduler.Parallel).
	Parallelism int

	// MinGroups/MaxGroups bound the per-layer group-count search
	// (0 = unbounded); ForceGroups pins it (see core.Scheduler).
	MinGroups, MaxGroups, ForceGroups int

	// DisableCache bypasses the planner's schedule cache and the
	// singleflight coalescing (both are keyed by the same fingerprint).
	DisableCache bool

	// DisableIncremental turns off layer-granular schedule reuse for
	// this request: the cold plan searches every layer from scratch and
	// records nothing in the planner's family index. Cold-path
	// benchmarks use it to keep iterations independent.
	DisableIncremental bool

	// Trace, when non-nil, records the planning request on the
	// recorder's control track: a span for the whole request, cache
	// hit/miss counters and the g-search timings of the scheduler.
	// Tracing never alters planning decisions.
	Trace *obs.Recorder

	// Info, when non-nil, is filled with how the request was served;
	// see Info.
	Info *Info

	// ColdPlanHook, when non-nil, runs at the start of every cold plan
	// (inside the singleflight leader, after cache miss and flight
	// acquisition). A non-nil return fails the cold plan with that
	// error; a panic is recovered and converted into an error wrapping
	// ErrPlanPanic. The serving layer's chaos harness uses it to inject
	// slow plans, leaked singleflight leaders, and leader crashes at
	// exactly the point where they hurt.
	ColdPlanHook func(ctx context.Context) error
}

// Info reports how one Plan request was served — the per-request signal
// the serving layer turns into its admission and cache metrics. Exactly
// one of CacheHit, Coalesced and Cold is set on success; all are false on
// error. Incremental refines Cold: the request ran the planning pipeline
// itself but patched a remembered layering instead of searching every
// layer.
type Info struct {
	// CacheHit reports that the mapping came from the schedule cache.
	CacheHit bool
	// Coalesced reports that the request joined a concurrent identical
	// request's cold plan and adopted its result without planning.
	Coalesced bool
	// Cold reports that this request ran scheduling and mapping itself.
	Cold bool
	// Incremental reports that the cold plan reused at least one layer
	// schedule from the planner's family index (layer-granular
	// fingerprint match) and searched only the remaining layers.
	Incremental bool
	// ReusedLayers and PatchedLayers split the layer count of an
	// incremental plan: ReusedLayers were adopted from the family index,
	// PatchedLayers were searched from scratch. Both are zero unless
	// Incremental is set.
	ReusedLayers, PatchedLayers int
	// Degraded reports that the serving layer answered with a stale
	// mapping of the same fingerprint family because the cold plan
	// exceeded its budget; the planner itself never sets it.
	Degraded bool
}

// ErrPlanPanic is wrapped by the error a cold plan returns when
// scheduling or mapping panicked. The panic is recovered inside the
// planner so a crashing singleflight leader finishes its flight instead
// of leaving followers blocked forever; followers whose contexts are
// still live re-elect a fresh leader rather than adopting the poisoned
// flight.
var ErrPlanPanic = errors.New("plan: panic during cold plan")

// Option mutates one planning option.
type Option func(*Options)

// WithStrategy selects the mapping strategy.
func WithStrategy(s core.Strategy) Option { return func(o *Options) { o.Strategy = s } }

// WithCores schedules on p symbolic cores instead of the whole machine.
func WithCores(p int) Option { return func(o *Options) { o.Cores = p } }

// WithCostModel overrides the cost model (e.g. for hybrid MPI+OpenMP
// planning).
func WithCostModel(m *cost.Model) Option { return func(o *Options) { o.Model = m } }

// WithParallelism caps the worker count of the group-count search;
// WithParallelism(1) runs it on one search worker, the calling goroutine.
func WithParallelism(n int) Option { return func(o *Options) { o.Parallelism = n } }

// WithGroupBounds bounds the per-layer group-count search to [min, max]
// (0 = unbounded on that side).
func WithGroupBounds(min, max int) Option {
	return func(o *Options) { o.MinGroups, o.MaxGroups = min, max }
}

// WithForceGroups pins the group count of every layer: 1 yields the
// data-parallel schedule, a large value the maximally task-parallel one.
func WithForceGroups(g int) Option { return func(o *Options) { o.ForceGroups = g } }

// WithoutCache bypasses the schedule cache (and with it the singleflight
// coalescing) for this request.
func WithoutCache() Option { return func(o *Options) { o.DisableCache = true } }

// WithoutIncremental disables layer-granular schedule reuse for this
// request; see Options.DisableIncremental.
func WithoutIncremental() Option { return func(o *Options) { o.DisableIncremental = true } }

// WithTrace attaches a trace recorder to the planning request; see
// Options.Trace.
func WithTrace(rec *obs.Recorder) Option { return func(o *Options) { o.Trace = rec } }

// WithInfo fills *i with how the request was served (cache hit, coalesced
// or cold); see Info.
func WithInfo(i *Info) Option { return func(o *Options) { o.Info = i } }

// WithColdPlanHook runs fn at the start of every cold plan; see
// Options.ColdPlanHook.
func WithColdPlanHook(fn func(ctx context.Context) error) Option {
	return func(o *Options) { o.ColdPlanHook = fn }
}

// Defaults returns the planner's default options.
func Defaults() Options {
	return Options{Strategy: core.Consecutive{}}
}

// Planner is a concurrent, cache-backed scheduling engine. A Planner is
// safe for concurrent use; all requests share its schedule cache and its
// singleflight table.
type Planner struct {
	base     Options
	cache    Cache
	flights  flightGroup
	families familyIndex
}

// New returns a Planner whose per-request defaults are Defaults()
// overridden by the given options, with a sharded schedule cache of
// DefaultCacheSize mappings.
func New(opts ...Option) *Planner {
	o := Defaults()
	for _, opt := range opts {
		opt(&o)
	}
	return &Planner{base: o, cache: NewCache(DefaultCacheSize)}
}

// NewWithCache returns a Planner using the given schedule cache (e.g. a
// larger one, one with more shards, or one shared between planners).
func NewWithCache(c Cache, opts ...Option) *Planner {
	p := New(opts...)
	if c != nil {
		p.cache = c
	}
	return p
}

// Cache returns the planner's schedule cache (for stats and purging).
func (p *Planner) Cache() Cache { return p.cache }

// PurgeIncremental drops the layer-granular family index backing
// incremental replanning (the whole-mapping schedule cache is purged
// separately via Cache().Purge()).
func (p *Planner) PurgeIncremental() { p.families.purge() }

// Plan schedules the graph on the machine and maps it with the configured
// strategy. It validates both inputs (errors wrap arch.ErrInvalidMachine /
// graph.ErrCyclicGraph), honours ctx cancellation throughout the search
// (errors wrap core.ErrCanceled), serves repeated requests from the
// schedule cache, and coalesces concurrent identical requests into one
// cold plan. The returned mapping may be shared with other callers and
// must be treated as read-only.
func (p *Planner) Plan(ctx context.Context, g *graph.Graph, m *arch.Machine, opts ...Option) (*core.Mapping, error) {
	o := p.base
	for _, opt := range opts {
		opt(&o)
	}
	if o.Info != nil {
		*o.Info = Info{}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	// The graph is validated by ScheduleCtx on the cold path; a cache hit
	// skips the O(V+E) revalidation, since only valid graphs are cached
	// and the fingerprint identifies the graph structurally.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("planning %q: %w (%w)", g.Name, core.ErrCanceled, err)
	}

	P := o.Cores
	if P == 0 {
		P = m.TotalCores()
	}
	if P < 1 {
		return nil, fmt.Errorf("planning %q on %d cores: %w", g.Name, P, core.ErrNoCores)
	}

	model := o.Model
	if model == nil {
		model = &cost.Model{Machine: m}
	}

	// Everything of the cache key but the graph: the family the cold path
	// reuses layers within. Each input is fingerprinted once per request.
	key := Key{
		Machine:        MachineFingerprint(m),
		Strategy:       o.Strategy.Name(),
		P:              P,
		Hybrid:         model.Hybrid,
		ThreadsPerRank: model.ThreadsPerRank,
		ForceGroups:    o.ForceGroups,
		MinGroups:      o.MinGroups,
		MaxGroups:      o.MaxGroups,
	}
	key.ModelMachine = key.Machine
	if model.Machine != m {
		key.ModelMachine = MachineFingerprint(model.Machine)
	}

	if o.DisableCache || p.cache == nil {
		mp, err := p.planCold(ctx, g, m, key, model, &o)
		if err == nil && o.Info != nil {
			o.Info.Cold = true
		}
		return mp, err
	}
	key.Graph = GraphFingerprint(g)
	for {
		if mp, ok := p.cache.Get(key); ok {
			o.Trace.Counter("plan.cache_hits").Add(1)
			o.Trace.Instant("cache-hit:"+g.Name, "plan", obs.ControlRank, o.Trace.Now())
			if o.Info != nil {
				o.Info.CacheHit = true
			}
			return mp, nil
		}
		o.Trace.Counter("plan.cache_misses").Add(1)

		f, leader := p.flights.join(key)
		if leader {
			// Re-check the cache: a previous leader may have published
			// between our miss and our join, and planning again here
			// would break the one-cold-plan-per-fingerprint guarantee.
			if mp, ok := p.cache.Peek(key); ok {
				p.flights.finish(key, f, mp, nil)
				o.Trace.Counter("plan.cache_hits").Add(1)
				if o.Info != nil {
					o.Info.CacheHit = true
				}
				return mp, nil
			}
			mp, err := p.planCold(ctx, g, m, key, model, &o)
			if err == nil {
				p.cache.Add(key, mp)
			}
			p.flights.finish(key, f, mp, err)
			if err == nil && o.Info != nil {
				o.Info.Cold = true
			}
			return mp, err
		}
		select {
		case <-f.done:
			if f.err != nil {
				// A leader canceled by its own caller — or one that
				// crashed mid-plan — must not poison followers whose
				// contexts are still live: loop and either hit the
				// cache or re-elect a fresh leader.
				if (errors.Is(f.err, core.ErrCanceled) || errors.Is(f.err, ErrPlanPanic)) && ctx.Err() == nil {
					continue
				}
				return nil, f.err
			}
			o.Trace.Counter("plan.coalesced").Add(1)
			if o.Info != nil {
				o.Info.Coalesced = true
			}
			return f.res.(*core.Mapping), nil
		case <-ctx.Done():
			return nil, fmt.Errorf("planning %q: %w (%w)", g.Name, core.ErrCanceled, ctx.Err())
		}
	}
}

// planCold runs the actual scheduling and mapping of one request — the
// work the cache and the singleflight exist to avoid repeating. Panics
// in the pipeline (or the hook) are recovered into an error wrapping
// ErrPlanPanic so a crashing leader still finishes its flight.
func (p *Planner) planCold(ctx context.Context, g *graph.Graph, m *arch.Machine, key Key,
	model *cost.Model, o *Options) (mp *core.Mapping, err error) {

	defer func() {
		if r := recover(); r != nil {
			mp, err = nil, fmt.Errorf("planning %q: %w: %v", g.Name, ErrPlanPanic, r)
		}
	}()
	if o.ColdPlanHook != nil {
		if err := o.ColdPlanHook(ctx); err != nil {
			return nil, fmt.Errorf("planning %q: cold-plan hook: %w", g.Name, err)
		}
	}
	planStart := o.Trace.Now()
	var inc *incrementalState
	var reuse func(*graph.Graph, int, graph.Layer) *core.LayerSchedule
	if !o.DisableIncremental {
		inc = &incrementalState{family: p.families.get(key.familyKey())}
		reuse = inc.reuse
	}
	sched, err := (&core.Scheduler{
		Model:       model,
		ForceGroups: o.ForceGroups,
		MinGroups:   o.MinGroups,
		MaxGroups:   o.MaxGroups,
		Parallel:    o.Parallelism,
		Reuse:       reuse,
		Trace:       o.Trace,
	}).ScheduleCtx(ctx, g, key.P)
	if err != nil {
		return nil, err
	}
	if inc != nil {
		inc.record(sched.Layers)
		if inc.reused > 0 {
			o.Trace.Counter("plan.incremental_hits").Add(1)
			o.Trace.Counter("plan.incremental_patched_layers").Add(int64(inc.patched))
			if o.Info != nil {
				o.Info.Incremental = true
				o.Info.ReusedLayers = inc.reused
				o.Info.PatchedLayers = inc.patched
			}
		}
	}
	mp, err = core.MapCtx(ctx, sched, m, o.Strategy)
	if err != nil {
		return nil, err
	}
	if o.Trace != nil {
		o.Trace.Span("plan:"+g.Name, "plan", obs.ControlRank, -1, -1, planStart, o.Trace.Now())
	}
	return mp, nil
}
