// Package serve is the multi-tenant planning-as-a-service front door: an
// HTTP server exposing the concurrent planner engine (internal/plan) and
// the deterministic cluster simulator (internal/cluster) to many
// concurrent clients, engineered to survive overload and injected
// failure.
//
// The request path is staged so each layer protects the ones below it:
//
//  1. Deadline propagation — a client deadline (X-Request-Deadline, a Go
//     duration) bounds the request context end to end: queueing, decode,
//     planning and simulation all stop the moment it expires, so
//     abandoned requests stop burning cores. Expiry maps to 504, a
//     client going away to 499.
//  2. Global admission — an adaptive concurrency limit (AIMD on observed
//     plan latency) with a small bounded FIFO wait queue; when the queue
//     overflows, requests are shed with 503 + Retry-After instead of
//     piling onto the planner.
//  3. Per-tenant quotas — token buckets reject excess traffic with 429
//     before it is decoded, so one tenant cannot starve the rest.
//  4. Sharded schedule cache — admitted requests are served from the
//     planner's fingerprint-sharded LRU (plan.ShardedCache), and a cached
//     mapping's /v1/plan reply is rendered once (see writePlanReply).
//  5. Coalescing — concurrent cold requests for the same fingerprint
//     collapse into one group-count search (singleflight); crashed or
//     canceled leaders are re-elected, never adopted.
//  6. Graceful degradation — when a cold plan blows its budget and a
//     stale-but-valid mapping of the same fingerprint family is on
//     hand, it is served flagged degraded:true instead of timing out.
//
// Liveness (GET /healthz) and readiness (GET /readyz) are split:
// readiness reports "degraded" while the server is shedding, serving
// stale plans or absorbing injected faults, and "draining" once shutdown
// began; liveness stays "ok" throughout — the server degrades, it does
// not die. A deterministic chaos injector (fault.ServeInjector, see
// WithChaos) can strike every stage: slow and leaked singleflight
// leaders, cache-shard stalls, cold-plan errors/panics and handler
// panics, all seeded and reproducible.
//
// Every stage publishes counters into an obs.Recorder (serve.requests,
// serve.shed, serve.rejected, serve.deadline_exceeded, serve.degraded,
// serve.panics, serve.cache_hits, serve.coalesced, serve.plans_cold,
// serve.queue_depth and admission gauges, serve.render.len, per-shard
// cache traffic), exposed in Prometheus-friendly text form on GET
// /metricz.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"mtask/internal/arch"
	"mtask/internal/cluster"
	"mtask/internal/core"
	"mtask/internal/cost"
	"mtask/internal/fault"
	"mtask/internal/graph"
	"mtask/internal/lru"
	"mtask/internal/obs"
	"mtask/internal/plan"
)

// TenantHeader names the request header carrying the tenant identity.
// Requests without it are accounted to DefaultTenant.
const TenantHeader = "X-Mtask-Tenant"

// DefaultTenant is the tenant of requests without a TenantHeader.
const DefaultTenant = "default"

// DeadlineHeader names the request header carrying the client's
// end-to-end budget as a Go duration (e.g. "250ms", "2s"). The server
// derives the request context's deadline from it (clamped to
// WithMaxDeadline) and propagates it through queueing, decode, planning
// and simulation.
const DeadlineHeader = "X-Request-Deadline"

// DefaultMaxBodyBytes bounds request bodies (graph + machine JSON).
const DefaultMaxBodyBytes = 64 << 20

// DefaultMaxDeadline caps client-requested deadlines.
const DefaultMaxDeadline = 5 * time.Minute

// Server is the planning service. Construct with New; serve its
// Handler() with net/http. A Server is safe for concurrent use.
type Server struct {
	planner *plan.Planner
	sharded *plan.ShardedCache // non-nil when the cache is ours / sharded
	quotas  *Quotas
	adm     *admission // nil = global admission disabled
	health  *health
	chaos   *fault.ServeInjector // nil = no chaos
	rec     *obs.Recorder
	maxBody int64

	// fallback retains the most recent successful mapping per fingerprint
	// family — including mappings whose exact cache Key has long been
	// evicted from the sharded LRU: the stale-but-valid reservoir the
	// degraded path serves from. Lookups Peek, so they leave recency alone
	// and, the store keeping no traffic counters, are stat-neutral like
	// plan.ShardedCache.Peek. Nil without WithDegraded.
	fallback     *lru.Cache[familyKey, *core.Mapping]
	degradeAfter time.Duration // 0 = degradation disabled
	maxDeadline  time.Duration

	// rendered memoizes the mapping-invariant part of /v1/plan replies;
	// see writePlanReply. Bounded by the schedule cache's capacity, so it
	// pins at most that many evicted (or purged) mappings.
	rendered *lru.Cache[*core.Mapping, []byte]

	capacity, shards int
	healthWindow     time.Duration
}

// Option configures a Server.
type Option func(*Server)

// WithQuota grants each tenant rate plan/simulate requests per second
// with bursts up to burst; rate <= 0 disables admission control (the
// default).
func WithQuota(rate float64, burst int) Option {
	return func(s *Server) { s.quotas = NewQuotas(rate, burst) }
}

// WithAdmission enables the adaptive global concurrency limit in front
// of the per-tenant quotas; see AdmissionConfig.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(s *Server) { s.adm = newAdmission(cfg) }
}

// WithDegraded enables graceful degradation: when a cold plan runs
// longer than after (or than half the request's remaining deadline,
// whichever is smaller) and a stale mapping of the same fingerprint
// family is retained (capacity families, 0 = DefaultFallbackCapacity),
// the stale mapping is served flagged degraded:true while the cold plan
// finishes in the background to warm the cache.
func WithDegraded(after time.Duration, capacity int) Option {
	return func(s *Server) {
		s.degradeAfter = after
		if capacity < 1 {
			capacity = DefaultFallbackCapacity
		}
		s.fallback = lru.New[familyKey, *core.Mapping](capacity)
	}
}

// WithChaos injects deterministic serve-path faults (slow/leaked/crashed
// singleflight leaders, cache-shard stalls, handler panics) for chaos
// testing; see fault.ServeInjector. Cache stalls require the server to
// own its cache (they are skipped under WithPlanner).
func WithChaos(inj *fault.ServeInjector) Option {
	return func(s *Server) { s.chaos = inj }
}

// WithMaxDeadline caps client-requested deadlines (default
// DefaultMaxDeadline).
func WithMaxDeadline(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.maxDeadline = d
		}
	}
}

// WithHealthWindow sets how long readiness reports degraded after the
// last stress signal (default DefaultDegradedWindow).
func WithHealthWindow(d time.Duration) Option {
	return func(s *Server) { s.healthWindow = d }
}

// WithCache sizes the schedule cache: total capacity mappings over the
// given number of fingerprint shards (0 picks the plan package defaults).
func WithCache(capacity, shards int) Option {
	return func(s *Server) { s.capacity, s.shards = capacity, shards }
}

// WithPlanner serves requests through the given planner instead of a
// private one (e.g. to share a cache with in-process callers). Overrides
// WithCache.
func WithPlanner(p *plan.Planner) Option {
	return func(s *Server) { s.planner = p }
}

// WithRecorder publishes the server's counters into rec instead of a
// private recorder.
func WithRecorder(rec *obs.Recorder) Option {
	return func(s *Server) { s.rec = rec }
}

// WithMaxBodyBytes bounds request bodies (default DefaultMaxBodyBytes).
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBody = n
		}
	}
}

// New returns a Server with a private planner backed by a sharded
// schedule cache, no quotas, no global admission limit, no degradation
// and a private metrics recorder, overridden by the given options.
func New(opts ...Option) *Server {
	s := &Server{maxBody: DefaultMaxBodyBytes, maxDeadline: DefaultMaxDeadline}
	for _, opt := range opts {
		opt(s)
	}
	if s.planner == nil {
		capacity := s.capacity
		if capacity < 1 {
			capacity = plan.DefaultCacheSize
		}
		shards := s.shards
		if shards < 1 {
			shards = plan.DefaultShards
		}
		s.sharded = plan.NewShardedCache(capacity, shards)
		var cache plan.Cache = s.sharded
		if s.chaos.Active() {
			cache = &chaosCache{Cache: s.sharded, inj: s.chaos}
		}
		s.planner = plan.NewWithCache(cache)
	} else if c, ok := s.planner.Cache().(*plan.ShardedCache); ok {
		s.sharded = c
	}
	renderCap := plan.DefaultCacheSize
	if s.sharded != nil {
		renderCap = s.sharded.Capacity()
	}
	s.rendered = lru.New[*core.Mapping, []byte](renderCap)
	if s.rec == nil {
		s.rec = obs.New(0, obs.WithName("mtaskd"))
	}
	s.health = newHealth(s.healthWindow)
	return s
}

// Planner returns the planner serving this server's requests.
func (s *Server) Planner() *plan.Planner { return s.planner }

// Recorder returns the server's metrics recorder.
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// SetDraining flips the server's draining state: while draining,
// GET /readyz answers 503 "draining" so load balancers stop routing new
// work here, while in-flight requests keep being served. The daemon
// calls it on SIGTERM before shutting the listener down.
func (s *Server) SetDraining(v bool) { s.health.SetDraining(v) }

// Readiness returns the current readiness state: HealthOK,
// HealthDegraded or HealthDraining.
func (s *Server) Readiness() string { return s.health.Readiness() }

// Handler returns the service's HTTP handler:
//
//	POST /v1/plan      graph+machine+options -> mapping summary
//	POST /v1/simulate  graph+machine+options -> simulated timing
//	GET  /healthz      liveness probe (always "ok" while the process serves)
//	GET  /readyz       readiness probe ("ok" | "degraded" | 503 "draining")
//	GET  /metricz      counters in "name value" text form
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", s.handlePlan)
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metricz", s.handleMetricz)
	return s.middleware(mux)
}

// middleware is the outermost request stage: panic recovery (injected or
// real handler panics become 500s and a stress signal, never a dead
// process), chaos sequence assignment, and deadline propagation from
// DeadlineHeader into the request context.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.rec.Counter("serve.panics").Add(1)
				s.health.Stress()
				writeError(w, http.StatusInternalServerError, "internal",
					fmt.Errorf("handler panic: %v", rec))
			}
		}()
		ctx := r.Context()
		// Chaos strikes the serve path only: health and metrics probes are
		// the instruments the harness observes the blast with.
		if s.chaos.Active() && r.Method == http.MethodPost {
			seq := s.chaos.NextSeq()
			ctx = withChaosSeq(ctx, seq)
			if f := s.chaos.Decide(fault.PointHandler, seq); f != nil && f.Kind == fault.Panic {
				s.rec.Counter("serve.chaos.injected").Add(1)
				panic(fmt.Sprintf("chaos: injected handler panic (seq %d)", seq))
			}
		}
		if h := r.Header.Get(DeadlineHeader); h != "" {
			d, err := time.ParseDuration(h)
			if err != nil || d <= 0 {
				writeError(w, http.StatusBadRequest, "invalid_argument",
					fmt.Errorf("invalid %s %q: want a positive Go duration", DeadlineHeader, h))
				return
			}
			if s.maxDeadline > 0 && d > s.maxDeadline {
				d = s.maxDeadline
			}
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	state := s.health.Readiness()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if state == HealthDraining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintln(w, state)
}

// Metrics snapshots the server's counters, including the per-shard cache
// gauges (serve.cache.shard<i>.hits/misses/len) when the cache is
// sharded, and the admission gauges.
func (s *Server) Metrics() map[string]int64 {
	s.publishGauges()
	return s.rec.Metrics()
}

func (s *Server) publishGauges() {
	hits, misses := s.planner.Cache().Stats()
	s.rec.SetMetric("serve.cache.hits", int64(hits))
	s.rec.SetMetric("serve.cache.misses", int64(misses))
	s.rec.SetMetric("serve.cache.len", int64(s.planner.Cache().Len()))
	s.rec.SetMetric("serve.render.len", int64(s.rendered.Len()))
	s.rec.SetMetric("serve.tenants", int64(s.quotas.Tenants()))
	if s.adm != nil {
		s.rec.SetMetric("serve.queue_depth", int64(s.adm.QueueDepth()))
		s.rec.SetMetric("serve.admission.limit", int64(s.adm.Limit()))
		s.rec.SetMetric("serve.admission.inflight", int64(s.adm.Inflight()))
	}
	if s.fallback != nil {
		s.rec.SetMetric("serve.fallback.len", int64(s.fallback.Len()))
	}
	if s.sharded == nil {
		return
	}
	for i, st := range s.sharded.ShardStats() {
		s.rec.SetMetric(fmt.Sprintf("serve.cache.shard%03d.hits", i), int64(st.Hits))
		s.rec.SetMetric(fmt.Sprintf("serve.cache.shard%03d.misses", i), int64(st.Misses))
		s.rec.SetMetric(fmt.Sprintf("serve.cache.shard%03d.len", i), int64(st.Len))
	}
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	s.publishGauges()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.rec.MetricsString())
}

func tenantOf(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return DefaultTenant
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request)     { s.serveAPI(w, r, false) }
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) { s.serveAPI(w, r, true) }

// serveAPI is the shared plan/simulate pipeline: global admission,
// per-tenant quota, decode+validate, plan (with degradation), and for
// simulate the cluster simulator on top.
func (s *Server) serveAPI(w http.ResponseWriter, r *http.Request, simulate bool) {
	s.rec.Counter("serve.requests").Add(1)
	ctx := r.Context()

	// Stage 1: global admission — shed or queue before any per-request
	// work is done. The AIMD latency sample starts at arrival, not at
	// admission: time spent queued is exactly the signal that the
	// current limit exceeds what the machine sustains, and it must push
	// the limit down even when the admitted work itself (cache hits)
	// stays fast.
	start := time.Now()
	if err := s.adm.Acquire(ctx); err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.rec.Counter("serve.shed").Add(1)
			s.health.Stress()
			w.Header().Set("Retry-After",
				strconv.Itoa(int(math.Ceil(s.adm.RetryAfter().Seconds()))))
			writeError(w, http.StatusServiceUnavailable, "overloaded", err)
			return
		}
		// The deadline expired (or the client left) while queued.
		s.writeCtxError(w, err)
		return
	}
	sample, overloaded := false, false
	defer func() {
		if sample {
			s.adm.Release(time.Since(start), overloaded)
		} else {
			s.adm.ReleaseNoSample()
		}
	}()

	// Stage 2: per-tenant quota.
	if err := s.quotas.Admit(tenantOf(r)); err != nil {
		s.rec.Counter("serve.rejected").Add(1)
		writeError(w, http.StatusTooManyRequests, "quota_exceeded", err)
		return
	}

	// Stage 3: decode and validate. The body is read under the request
	// deadline and the size limit, then decoded in one pass.
	body, err := readBody(ctxReader{ctx: ctx, r: http.MaxBytesReader(w, r.Body, s.maxBody)}, r.ContentLength)
	var req *PlanRequest
	if err == nil {
		req, err = decodePlanRequest(body)
	}
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			// The deadline expired mid-read: that is the client's budget,
			// not a malformed body — map it like every other context
			// expiry instead of the generic 400/500 path.
			s.writeCtxError(w, ctxErr)
			return
		}
		writeError(w, http.StatusBadRequest, "invalid_argument", fmt.Errorf("decoding request: %w", err))
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", err)
		return
	}
	opts, err := req.planOpts()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", err)
		return
	}

	// Stage 4: plan — admitted work; its latency feeds the AIMD limit.
	sample = true
	mp, info, err := s.planMapping(ctx, req, opts)
	if err != nil {
		overloaded = isOverloadSignal(err)
		s.writePlanError(w, err)
		return
	}
	switch {
	case info.Degraded:
		s.rec.Counter("serve.degraded").Add(1)
		s.health.Stress()
	case info.CacheHit:
		s.rec.Counter("serve.cache_hits").Add(1)
	case info.Coalesced:
		s.rec.Counter("serve.coalesced").Add(1)
	case info.Incremental:
		// Incremental refines Cold: the request ran the planning
		// pipeline but adopted remembered layer schedules instead of
		// searching them. Counted separately from serve.plans_cold so
		// the two cold variants are distinguishable on /metricz.
		s.rec.Counter("serve.plans_incremental").Add(1)
		s.rec.Counter("serve.incremental_layers_reused").Add(int64(info.ReusedLayers))
	case info.Cold:
		s.rec.Counter("serve.plans_cold").Add(1)
	}

	if !simulate {
		s.writePlanReply(w, mp, info)
		return
	}
	model := &cost.Model{Machine: mp.Machine}
	prog, _, err := cluster.FromMapping(model, mp)
	if err != nil {
		s.writePlanError(w, err)
		return
	}
	res, err := cluster.SimulateCtx(ctx, model, prog)
	if err != nil {
		overloaded = isOverloadSignal(err)
		s.writePlanError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &SimulateResponse{
		Graph:       mp.Schedule.Source.Name,
		Machine:     mp.Machine.Name,
		Makespan:    res.Makespan,
		CompTime:    res.CompTime,
		CommTime:    res.CommTime,
		RedistTime:  res.RedistTime,
		Cached:      info.CacheHit,
		Coalesced:   info.Coalesced,
		Degraded:    info.Degraded,
		Incremental: info.Incremental,
	})
}

// planMapping runs the planner for an admitted, decoded request, with
// graceful degradation when configured: a cold plan that exceeds its
// budget is answered by the family's stale fallback mapping (flagged
// Degraded) while the cold plan finishes in the background to warm the
// cache. The request context bounds everything; the background
// completion alone survives it, bounded by its own warm budget.
func (s *Server) planMapping(ctx context.Context, req *PlanRequest, opts []plan.Option) (*core.Mapping, plan.Info, error) {
	// The server's recorder doubles as the planner's trace sink, so the
	// plan.* counters (cache, coalescing, incremental reuse) are
	// exposed on /metricz next to the serve.* ones.
	opts = append(opts, plan.WithTrace(s.rec))
	if s.chaos.Active() {
		opts = append(opts, plan.WithColdPlanHook(s.chaosColdPlanHook))
	}
	// The family costs a fingerprint of graph and machine: only worth it
	// with a fallback store to key.
	var fam familyKey
	if s.fallback != nil {
		fam = familyOf(req.Graph, req.Machine, req.strategyName(), req.Options.Cores)
	}

	if s.degradeAfter <= 0 {
		var info plan.Info
		opts = append(opts, plan.WithInfo(&info))
		mp, err := s.planner.Plan(ctx, req.Graph, req.Machine, opts...)
		if err == nil && s.fallback != nil {
			s.fallback.Put(fam, mp)
		}
		return mp, info, err
	}

	budget := s.degradeAfter
	if dl, ok := ctx.Deadline(); ok {
		if half := time.Until(dl) / 2; half < budget {
			budget = half
		}
	}
	if budget <= 0 {
		budget = time.Millisecond
	}

	// The plan runs on a context detached from the request: if we end up
	// serving the stale fallback, the cold plan keeps going (bounded by
	// the warm budget) so the cache warms and the family heals. Until
	// that moment, the request context's demise cancels it — abandoned
	// requests must not burn cores.
	type planRes struct {
		mp   *core.Mapping
		info plan.Info
		err  error
	}
	planCtx, cancelPlan := context.WithCancel(context.WithoutCancel(ctx))
	var servedStale atomic.Bool
	stopWatch := context.AfterFunc(ctx, func() {
		if !servedStale.Load() {
			cancelPlan()
		}
	})
	ch := make(chan planRes, 1)
	go func() {
		var info plan.Info
		o := append(opts[:len(opts):len(opts)], plan.WithInfo(&info))
		mp, err := s.planner.Plan(planCtx, req.Graph, req.Machine, o...)
		ch <- planRes{mp, info, err}
	}()
	finish := func(r planRes) (*core.Mapping, plan.Info, error) {
		stopWatch()
		cancelPlan()
		if r.err == nil {
			s.fallback.Put(fam, r.mp)
		}
		return r.mp, r.info, r.err
	}

	timer := time.NewTimer(budget)
	defer timer.Stop()
	select {
	case r := <-ch:
		return finish(r)
	case <-ctx.Done():
		stopWatch()
		cancelPlan()
		return nil, plan.Info{}, fmt.Errorf("planning %q: %w", req.Graph.Name, ctx.Err())
	case <-timer.C:
	}

	// Budget blown: degrade if the family has a stale answer.
	if mp, ok := s.fallback.Peek(fam); ok {
		servedStale.Store(true)
		stopWatch()
		time.AfterFunc(s.warmBudget(), cancelPlan)
		return mp, plan.Info{Degraded: true}, nil
	}

	// Nothing to degrade to: keep waiting out the deadline.
	select {
	case r := <-ch:
		return finish(r)
	case <-ctx.Done():
		stopWatch()
		cancelPlan()
		return nil, plan.Info{}, fmt.Errorf("planning %q: %w", req.Graph.Name, ctx.Err())
	}
}

// warmBudget bounds how long a cold plan may keep running after its
// request was answered with a stale fallback.
func (s *Server) warmBudget() time.Duration {
	w := 10 * s.degradeAfter
	if w < time.Second {
		w = time.Second
	}
	if w > 30*time.Second {
		w = 30 * time.Second
	}
	return w
}

// readBody reads a whole request body into one buffer, presized from the
// declared Content-Length where that is plausible (the declared length is
// the client's word, so it sizes at most maxPresize up front).
func readBody(r io.Reader, contentLength int64) ([]byte, error) {
	const maxPresize = 1 << 20
	var buf bytes.Buffer
	if contentLength > 0 {
		buf.Grow(int(min(contentLength, maxPresize)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// ctxReader fails reads once the request context is done, so a deadline
// expiring mid-read surfaces as context.DeadlineExceeded instead of
// blocking on the body.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (cr ctxReader) Read(p []byte) (int, error) {
	if err := cr.ctx.Err(); err != nil {
		return 0, err
	}
	return cr.r.Read(p)
}

// statusOf maps an error from any stage of the pipeline to its HTTP
// status and stable machine-readable code. Deadline expiry is checked
// before generic cancellation: the planner wraps both the sentinel
// core.ErrCanceled and the context cause, so errors.Is sees through to
// the root.
func statusOf(err error) (status int, code string) {
	switch {
	case errors.Is(err, arch.ErrInvalidMachine),
		errors.Is(err, graph.ErrCyclicGraph),
		errors.Is(err, core.ErrNoCores):
		return http.StatusBadRequest, "invalid_argument"
	case errors.Is(err, ErrQuotaExceeded):
		return http.StatusTooManyRequests, "quota_exceeded"
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable, "overloaded"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled), errors.Is(err, core.ErrCanceled):
		return 499, "canceled"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// isOverloadSignal reports whether a failed request should shrink the
// adaptive concurrency limit: deadline expiry means the server was too
// slow for the offered load; a client canceling early does not.
func isOverloadSignal(err error) bool {
	return errors.Is(err, context.DeadlineExceeded)
}

// writeCtxError maps a bare context error (from queueing or decoding) to
// 504/499 and counts deadline expiries.
func (s *Server) writeCtxError(w http.ResponseWriter, err error) {
	status, code := statusOf(err)
	if code == "deadline_exceeded" {
		s.rec.Counter("serve.deadline_exceeded").Add(1)
	}
	writeError(w, status, code, err)
}

// writePlanError maps planning-pipeline errors to HTTP statuses via
// statusOf and keeps the failure counters.
func (s *Server) writePlanError(w http.ResponseWriter, err error) {
	status, code := statusOf(err)
	switch code {
	case "deadline_exceeded":
		s.rec.Counter("serve.deadline_exceeded").Add(1)
	case "internal":
		s.rec.Counter("serve.errors").Add(1)
	}
	writeError(w, status, code, err)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, &ErrorResponse{Error: err.Error(), Code: code})
}
