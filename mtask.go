// Package mtask is a Go implementation of the M-task (multiprocessor-task)
// programming model with combined scheduling and mapping for hierarchical
// multi-core clusters, reproducing Dümmler, Rauber and Rünger: "Scalable
// computing with parallel tasks" (SC/MTAGS 2009) and its journal version
// "Combined scheduling and mapping for scalable computing with parallel
// tasks" (Scientific Programming 20, 2012).
//
// An M-task is a parallel task executable by an arbitrary group of cores;
// a program is a DAG of M-tasks connected by input-output relations. The
// primary entry point is the Planner engine:
//
//	mp, err := mtask.Plan(ctx, g, machine)                  // defaults
//	mp, err := mtask.Plan(ctx, g, machine,
//	    mtask.WithStrategy(mtask.Scattered{}),
//	    mtask.WithCores(64),
//	    mtask.WithParallelism(8))
//
// Plan runs the paper's combined scheduling and mapping — the layer-based
// group-count search of Algorithm 1 followed by the architecture-aware
// mapping step — concurrently on a bounded worker pool and serves
// repeated requests from an LRU schedule cache, while staying bit-identical
// to a run on one search worker.
// Cancellation and deadlines of ctx are honoured throughout scheduling,
// mapping and simulation. Failures wrap the sentinel errors
// ErrInvalidMachine, ErrCyclicGraph, ErrNoCores and ErrCanceled for
// errors.Is dispatch.
//
// The library further provides:
//
//   - M-task graphs with linear-chain contraction and layer partitioning
//     (Graph, Task);
//   - the layer-based scheduling algorithm with group-count search, LPT
//     assignment and group-size adjustment (Scheduler, Schedule), plus the
//     CPA and CPR baselines in internal/baseline;
//   - architecture descriptions of hierarchical clusters and the
//     consecutive/scattered/mixed mapping strategies (Machine, Strategy,
//     Map);
//   - a communication cost model and a deterministic cluster simulator
//     (CostModel, Simulate) that replace the paper's physical testbeds;
//   - a goroutine-based runtime executing M-task programs in shared
//     memory with instrumented group communicators (World, Execute);
//   - a compiler front-end for a CM-task-style coordination language
//     (CompileSpec);
//   - the paper's workloads: five parallel ODE solvers (internal/ode) and
//     an NPB-multi-zone-style benchmark (internal/nas), with experiment
//     runners for every table and figure of the evaluation
//     (RunExperiment);
//   - planning as a service: JSON codecs for graphs and machines
//     (MarshalGraphJSON, UnmarshalMachineJSON, ...) and the multi-tenant
//     mtaskd HTTP handler with quota admission, a sharded schedule cache
//     and request coalescing (ServeHandler; see docs/SERVING.md);
//   - a two-level machine scheduler admitting a stream of moldable,
//     malleable M-task jobs: partition sizing from the planner's speedup
//     model, EASY-style backfill with a starvation guard, and grow/shrink
//     of running jobs at layer barriers (JobAllocator; see
//     docs/SCHEDULING.md).
//
// See README.md for a tour and EXPERIMENTS.md for the paper-vs-measured
// record.
package mtask

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"mtask/internal/arch"
	"mtask/internal/bench"
	"mtask/internal/cluster"
	"mtask/internal/core"
	"mtask/internal/cost"
	"mtask/internal/dynsched"
	"mtask/internal/fault"
	"mtask/internal/graph"
	"mtask/internal/obs"
	"mtask/internal/plan"
	"mtask/internal/redist"
	"mtask/internal/runtime"
	"mtask/internal/serve"
	"mtask/internal/spec"
)

// --- sentinel errors ---

// Sentinel errors returned (wrapped) by the planning pipeline; test with
// errors.Is.
var (
	// ErrInvalidMachine reports a malformed machine description.
	ErrInvalidMachine = arch.ErrInvalidMachine
	// ErrCyclicGraph reports a cyclic M-task graph.
	ErrCyclicGraph = graph.ErrCyclicGraph
	// ErrNoCores reports a schedule or mapping requested on fewer cores
	// than it needs.
	ErrNoCores = core.ErrNoCores
	// ErrCanceled reports that planning or simulation was abandoned
	// because the context was canceled or timed out.
	ErrCanceled = core.ErrCanceled
	// ErrQuotaExceeded reports a serving request rejected by its tenant's
	// token-bucket quota (the HTTP handler answers it with 429).
	ErrQuotaExceeded = serve.ErrQuotaExceeded
)

// --- architecture ---

// Machine describes a hierarchical multi-core cluster (nodes, processors
// per node, cores per processor, per-level interconnect performance).
type Machine = arch.Machine

// CoreID identifies a physical core by node, processor and core index.
type CoreID = arch.CoreID

// CHiC returns the paper's Chemnitz High Performance Linux cluster preset.
func CHiC() *Machine { return arch.CHiC() }

// SGIAltix returns the paper's SGI Altix partition preset.
func SGIAltix() *Machine { return arch.SGIAltix() }

// JuRoPA returns the paper's JuRoPA cluster preset.
func JuRoPA() *Machine { return arch.JuRoPA() }

// --- graphs ---

// Graph is an M-task graph: a DAG of M-tasks with input-output relations.
type Graph = graph.Graph

// Task is one M-task node of a Graph.
type Task = graph.Task

// TaskID identifies a task within a graph.
type TaskID = graph.TaskID

// NewGraph returns an empty named M-task graph.
func NewGraph(name string) *Graph { return graph.New(name) }

// --- cost model, scheduling and mapping ---

// CostModel evaluates computation and communication costs on a Machine.
type CostModel = cost.Model

// Scheduler runs the paper's layer-based scheduling algorithm.
type Scheduler = core.Scheduler

// Schedule is a layered schedule of an M-task graph on symbolic cores.
type Schedule = core.Schedule

// Strategy is a mapping strategy ordering the physical cores.
type Strategy = core.Strategy

// Consecutive maps cores of the same node to adjacent positions.
type Consecutive = core.Consecutive

// Scattered maps corresponding cores of different nodes to adjacent
// positions.
type Scattered = core.Scattered

// Mixed maps blocks of D consecutive cores per node.
type Mixed = core.Mixed

// Mapping is the physical realization of a Schedule on a Machine.
type Mapping = core.Mapping

// StrategyByName returns the named mapping strategy: "consecutive",
// "scattered" or "mixed:<d>".
func StrategyByName(name string) (Strategy, error) { return core.StrategyByName(name) }

// Map assigns the symbolic cores of a schedule to physical cores.
func Map(s *Schedule, m *Machine, strat Strategy) (*Mapping, error) {
	return core.Map(s, m, strat)
}

// --- planning (the primary API) ---

// Planner is a concurrent, cache-backed scheduling engine; see Plan.
type Planner = plan.Planner

// PlanOption configures one Plan request (or a Planner's defaults).
type PlanOption = plan.Option

// WithStrategy selects the mapping strategy (default Consecutive).
func WithStrategy(s Strategy) PlanOption { return plan.WithStrategy(s) }

// WithCores schedules on p symbolic cores instead of the whole machine.
func WithCores(p int) PlanOption { return plan.WithCores(p) }

// WithCostModel overrides the cost model (e.g. hybrid MPI+OpenMP).
func WithCostModel(m *CostModel) PlanOption { return plan.WithCostModel(m) }

// WithParallelism caps the worker count of the group-count search;
// WithParallelism(1) runs it on one search worker and 0 (the default)
// uses GOMAXPROCS workers. The result is bit-identical either way.
func WithParallelism(n int) PlanOption { return plan.WithParallelism(n) }

// WithGroupBounds bounds the per-layer group-count search to [min, max]
// (0 = unbounded on that side).
func WithGroupBounds(min, max int) PlanOption { return plan.WithGroupBounds(min, max) }

// WithForceGroups pins the group count of every layer: 1 yields the
// data-parallel schedule, a large value the maximally task-parallel one.
func WithForceGroups(g int) PlanOption { return plan.WithForceGroups(g) }

// WithoutCache bypasses the schedule cache for this request.
func WithoutCache() PlanOption { return plan.WithoutCache() }

// WithoutIncremental disables layer-granular schedule reuse (incremental
// replanning) for this request: the cold plan searches every layer from
// scratch and records nothing in the planner's family index.
func WithoutIncremental() PlanOption { return plan.WithoutIncremental() }

// WithPlanTrace attaches a trace recorder to a Plan request: the request
// span, the per-layer g-search timings and cache hit/miss counters are
// recorded on the recorder's control track. Tracing never alters planning decisions.
func WithPlanTrace(rec *TraceRecorder) PlanOption { return plan.WithTrace(rec) }

// PlanInfo reports how one Plan request was served: from the schedule
// cache, coalesced onto a concurrent identical request, cold, or cold with
// incremental layer reuse (see plan.Info).
type PlanInfo = plan.Info

// WithPlanInfo fills *i with how the request was served.
func WithPlanInfo(i *PlanInfo) PlanOption { return plan.WithInfo(i) }

// NewPlanner returns a dedicated Planner whose defaults are the given
// options and whose schedule cache is private. Use it when request streams
// should not share the process-wide default cache.
func NewPlanner(opts ...PlanOption) *Planner { return plan.New(opts...) }

// defaultPlanner serves mtask.Plan; all Plan calls of a process share its
// schedule cache, which is what makes repeated identical requests cheap.
var defaultPlanner = plan.New()

// Plan is the combined scheduling and mapping of the paper behind a
// context-aware engine: it schedules the graph with the layer-based
// algorithm (the per-layer group-count search runs on a worker pool with
// deterministic tie-breaking, so the result is bit-identical to a run on
// one search worker), maps the symbolic cores with
// the configured strategy, and caches the finished mapping keyed by graph
// and machine fingerprints. Canceling ctx aborts the search with an error
// wrapping ErrCanceled.
//
// The returned mapping may be served from the cache and shared with other
// callers; treat it as read-only.
func Plan(ctx context.Context, g *Graph, m *Machine, opts ...PlanOption) (*Mapping, error) {
	return defaultPlanner.Plan(ctx, g, m, opts...)
}

// --- serving ---

// ServeOption configures ServeHandler (and NewPlanServer underneath):
// quota, cache geometry, recorder, body limits.
type ServeOption = serve.Option

// ServeTenantHeader is the HTTP request header naming the tenant for
// quota accounting; absent or empty means the "default" tenant.
const ServeTenantHeader = serve.TenantHeader

// ServeDeadlineHeader is the HTTP request header carrying the client's
// per-request deadline as a Go duration (e.g. "250ms"); it propagates
// as a context deadline through admission, planning and encoding, and
// expiry anywhere along the way answers 504 deadline_exceeded.
const ServeDeadlineHeader = serve.DeadlineHeader

// ServeAdmissionConfig configures WithServeAdmission: the adaptive
// (AIMD) global concurrency limit, its latency target, and the bounded
// wait queue in front of it.
type ServeAdmissionConfig = serve.AdmissionConfig

// WithServeAdmission puts an adaptive global concurrency limit in front
// of the per-tenant quotas: at most limit requests plan at once, excess
// requests wait in a bounded FIFO queue, and overflow is shed with HTTP
// 503 and a Retry-After hint. The limit tracks observed request latency
// (AIMD) between cfg.MinLimit and cfg.MaxLimit. The zero config takes
// the serve package defaults.
func WithServeAdmission(cfg ServeAdmissionConfig) ServeOption {
	return serve.WithAdmission(cfg)
}

// WithServeDegraded serves a stale cached plan for the same
// (graph, machine, strategy, cores) family — flagged "degraded": true —
// when a cold plan exceeds after, instead of making the client wait out
// the full planning time. capacity bounds the stale-plan store
// (0 = default). after <= 0 disables degradation.
func WithServeDegraded(after time.Duration, capacity int) ServeOption {
	return serve.WithDegraded(after, capacity)
}

// WithServeQuota enforces a per-tenant token bucket of ratePerSec
// requests per second with the given burst; rate <= 0 disables quotas.
// Rejected requests get HTTP 429 with an error wrapping ErrQuotaExceeded
// semantics (code "quota_exceeded").
func WithServeQuota(ratePerSec float64, burst int) ServeOption {
	return serve.WithQuota(ratePerSec, burst)
}

// WithServeCache sets the handler's sharded schedule cache geometry:
// total capacity in mappings and the shard count (0 picks the defaults).
func WithServeCache(capacity, shards int) ServeOption {
	return serve.WithCache(capacity, shards)
}

// WithServeRecorder attaches a trace recorder to the handler; serving
// counters (serve.requests, serve.coalesced, serve.rejected, per-shard
// cache traffic) land on it and are exported by GET /metricz.
func WithServeRecorder(rec *TraceRecorder) ServeOption {
	return serve.WithRecorder(rec)
}

// ServeHandler returns the planning-as-a-service HTTP handler served by
// cmd/mtaskd: POST /v1/plan and POST /v1/simulate take a JSON graph,
// machine and options and return the planned mapping summary or the
// simulated timing; GET /healthz, GET /readyz and GET /metricz expose
// liveness, readiness and the serving metrics. The handler is
// multi-tenant (ServeTenantHeader), admission-controlled
// (WithServeAdmission, WithServeQuota), deadline-aware
// (ServeDeadlineHeader), backed by a fingerprint-sharded schedule
// cache, and coalesces concurrent identical cold plans into one planner
// invocation. See docs/SERVING.md for the wire format and the overload
// and degradation behaviour.
func ServeHandler(opts ...ServeOption) http.Handler {
	return serve.New(opts...).Handler()
}

// --- JSON codecs ---

// MarshalGraphJSON encodes an M-task graph in the serving wire form:
// tasks in insertion order (edges by task index), composed tasks with
// their subgraphs inline. The encoding round-trips through
// UnmarshalGraphJSON bit-identically fingerprint-wise.
func MarshalGraphJSON(g *Graph) ([]byte, error) { return json.Marshal(g) }

// UnmarshalGraphJSON decodes a graph encoded by MarshalGraphJSON,
// re-validating every task and edge (unknown task references, self
// edges and malformed kinds are rejected).
func UnmarshalGraphJSON(data []byte) (*Graph, error) {
	g := new(graph.Graph)
	if err := json.Unmarshal(data, g); err != nil {
		return nil, err
	}
	return g, nil
}

// MarshalMachineJSON encodes a machine description as JSON.
func MarshalMachineJSON(m *Machine) ([]byte, error) { return json.Marshal(m) }

// UnmarshalMachineJSON decodes and validates a machine description
// (errors wrap ErrInvalidMachine).
func UnmarshalMachineJSON(data []byte) (*Machine, error) {
	m := new(arch.Machine)
	if err := json.Unmarshal(data, m); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// --- simulation ---

// SimResult is the outcome of a cluster simulation.
type SimResult = cluster.Result

// Simulate executes the mapped schedule on the deterministic cluster
// simulator and returns the predicted timing.
func Simulate(mp *Mapping) (*SimResult, error) {
	return SimulateCtx(context.Background(), mp)
}

// SimulateCtx is Simulate with cooperative cancellation (errors wrap
// ErrCanceled).
func SimulateCtx(ctx context.Context, mp *Mapping) (*SimResult, error) {
	model := &cost.Model{Machine: mp.Machine}
	prog, _, err := cluster.FromMapping(model, mp)
	if err != nil {
		return nil, err
	}
	return cluster.SimulateCtx(ctx, model, prog)
}

// --- goroutine runtime ---

// World is a set of symbolic cores realised as goroutines.
type World = runtime.World

// Comm is a communicator handle of one core.
type Comm = runtime.Comm

// TaskCtx is the execution context of an M-task body: its group
// communicator, the task, its place in the schedule and the attempt
// context.
type TaskCtx = runtime.TaskCtx

// TaskFunc is the SPMD body of an M-task.
type TaskFunc = runtime.TaskFunc

// NewWorld returns a world of p goroutine cores.
func NewWorld(p int) (*World, error) { return runtime.NewWorld(p) }

// Execute runs a schedule on the world with real task bodies: ExecuteCtx
// with no options, its Report discarded. Failures come back as one error,
// "layer L group G: ..." per failed task; a panicking body is recovered
// into a *PanicError in that error, not re-raised in the caller.
func Execute(w *World, sched *Schedule, body func(t *Task) TaskFunc) error {
	_, err := runtime.ExecuteCtx(context.Background(), w, sched, body)
	return err
}

// --- fault tolerance ---

// FaultPolicy is the retry/backoff/timeout/escalation policy of the
// fault-tolerant executor.
type FaultPolicy = fault.Policy

// FaultInjector injects deterministic failures into task attempts (for
// tests and chaos runs).
type FaultInjector = fault.Injector

// FaultScript is one scripted injection: fail a named task on a given
// attempt.
type FaultScript = fault.Script

// FaultKind classifies an injected failure.
type FaultKind = fault.Kind

// Injectable failure kinds for FaultScript and Injector decisions.
const (
	FaultError    = fault.Error
	FaultPanic    = fault.Panic
	FaultDelay    = fault.Delay
	FaultCoreLoss = fault.CoreLoss
)

// DefaultFaultPolicy returns a moderate retry policy (3 retries,
// exponential backoff, 30s per-attempt timeout, no degrade-and-replan).
func DefaultFaultPolicy() FaultPolicy { return fault.DefaultPolicy() }

// Fault-tolerance sentinels; test with errors.Is.
var (
	// ErrInjected marks failures produced by a FaultInjector.
	ErrInjected = fault.ErrInjected
	// ErrCoreLost marks permanent core-group loss (not retryable;
	// triggers degrade-and-replan when enabled).
	ErrCoreLost = fault.ErrCoreLost
	// ErrCommAborted marks collectives failed by a communicator abort.
	ErrCommAborted = runtime.ErrCommAborted
	// ErrNoSubSchedule reports a composed task without a sub-schedule.
	ErrNoSubSchedule = runtime.ErrNoSubSchedule
)

// PanicError is a panic recovered from a task body, with the panicking
// goroutine's stack.
type PanicError = runtime.PanicError

// Report records the fault-tolerance history of one execution.
type Report = runtime.Report

// ExecOption configures ExecuteCtx.
type ExecOption = runtime.ExecOption

// Replanner produces a schedule for the surviving cores after a core
// group is lost (see ReplannerFor for the standard implementation).
type Replanner = runtime.Replanner

// WithFaultPolicy sets the retry/timeout policy of an ExecuteCtx run.
func WithFaultPolicy(p FaultPolicy) ExecOption { return runtime.WithPolicy(p) }

// WithFaultInjector installs a failure injector into an ExecuteCtx run.
func WithFaultInjector(in *FaultInjector) ExecOption { return runtime.WithInjector(in) }

// WithReplanner installs the degrade-and-replan callback.
func WithReplanner(r Replanner) ExecOption { return runtime.WithReplanner(r) }

// WithWavefront switches ExecuteCtx from layer-synchronous execution to
// dependence-driven (wavefront) execution: a task launches as soon as its
// graph predecessors completed and its group's cores were released by
// their prior-layer occupants, with no global layer join. Results are
// bitwise identical to the layered mode, and bodies see the same TaskCtx.
func WithWavefront() ExecOption { return runtime.WithWavefront() }

// WithoutTimeline drops O(tasks) state from the Report so million-task
// executions stay lean: it retains no TaskSpans (utilization and the
// totals still work) and keeps per-task histories only for tasks with a
// fault history. Attempt numbers, and with them the fault injector's
// decisions, are the same with and without it.
func WithoutTimeline() ExecOption { return runtime.WithoutTimeline() }

// Resizer lets the caller swap in a schedule of a different core count at
// every layer barrier (voluntary malleability, as opposed to the
// failure-driven Replanner). Return (nil, nil) to keep the current
// schedule. The new schedule must keep the layer partition and fit the
// world; see docs/SCHEDULING.md.
type Resizer = runtime.Resizer

// WithResizer installs the layer-barrier resize hook used by the
// machine-level job allocator to grow and shrink running jobs.
func WithResizer(r Resizer) ExecOption { return runtime.WithResizer(r) }

// ErrResizeInWavefront marks WithResizer combined with WithWavefront: a
// Resizer applies a shrink before it returns, and a wavefront run, whose
// later-layer tasks are in flight at every boundary, would keep running
// them on cores already handed to another job. Wavefront runs are
// moldable (sized at admission) but not malleable.
var ErrResizeInWavefront = runtime.ErrResizeInWavefront

// TaskSpan is one Report timeline entry: which task ran on which layer,
// group and core count, and when (offsets from the start of execution).
type TaskSpan = runtime.TaskSpan

// --- observability ---

// TraceRecorder is the unified event recorder of internal/obs: per-rank
// ring-buffered span/instant/counter events with a monotonic clock, a
// lock-free hot path, and exact drop accounting. A nil recorder is a
// valid no-op recorder. Read it (Events, Metrics, Gantt, WriteChrome)
// only after the traced run returned.
type TraceRecorder = obs.Recorder

// TraceEvent is one recorded observation of a TraceRecorder.
type TraceEvent = obs.Event

// NewTraceRecorder returns a recorder with one event timeline per rank
// in [0, ranks) plus a control timeline for run-level events (planner
// spans, scheduler decisions, fault instants).
func NewTraceRecorder(ranks int, opts ...TraceOption) *TraceRecorder {
	return obs.New(ranks, opts...)
}

// TraceOption configures NewTraceRecorder.
type TraceOption = obs.Option

// WithTraceCapacity sets the per-rank event ring capacity (default
// obs.DefaultCapacity = 16384). Events beyond it are dropped, never
// overwritten; TraceRecorder.Drops counts them exactly.
func WithTraceCapacity(n int) TraceOption { return obs.WithCapacity(n) }

// WithTraceName labels the recorder; the Chrome exporter uses it as the
// process name.
func WithTraceName(s string) TraceOption { return obs.WithName(s) }

// WithTrace attaches a trace recorder to an ExecuteCtx run: every rank
// records its task-attempt spans, barrier-wait spans and per-collective
// counters on its own timeline, and the executor adds retry, replan and
// layer-completion events. The recorder needs at least sched.P rank
// timelines. Export with WriteChromeTrace (Perfetto / chrome://tracing),
// TraceRecorder.Gantt, or inspect TraceRecorder.Metrics.
func WithTrace(rec *TraceRecorder) ExecOption { return runtime.WithRecorder(rec) }

// WriteChromeTrace writes the recorders' events as Chrome trace_event
// JSON, loadable in Perfetto (https://ui.perfetto.dev) and
// chrome://tracing; each recorder becomes one process, each rank one
// named thread. Call only after the traced runs returned.
func WriteChromeTrace(w io.Writer, recs ...*TraceRecorder) error {
	return obs.WriteChrome(w, recs...)
}

// Precedence is the precomputed dependence metadata of a schedule (the
// wavefront executor's launch conditions); see PrecedenceOf.
type Precedence = core.Precedence

// PrecedenceOf derives per-task predecessor sets and per-rank occupancy
// chains from a layered schedule.
func PrecedenceOf(s *Schedule) (*Precedence, error) { return core.PrecedenceOf(s) }

// ExecuteCtx is the fault-tolerant Execute: it recovers panics in task
// bodies into errors (with stack capture), aborts group communicators of
// failed tasks so peers cannot deadlock in collectives, enforces the
// policy's timeouts, retries failed tasks with exponential backoff, and —
// with FaultPolicy.DegradeAndReplan and a Replanner — recovers from
// permanent core loss by replanning on the surviving cores and resuming
// from the last completed layer barrier. Task bodies must be idempotent
// (they may re-run on retry or after a replan).
func ExecuteCtx(ctx context.Context, w *World, sched *Schedule, body func(t *Task) TaskFunc,
	opts ...ExecOption) (*Report, error) {
	return runtime.ExecuteCtx(ctx, w, sched, body, opts...)
}

// ReplannerFor returns the standard Replanner: it replans the graph with
// the planner on the machine shrunk to the survivors (whole nodes; see
// Machine.WithoutCores), preserving the layer partition. Pass it to
// ExecuteCtx via WithReplanner.
func ReplannerFor(p *Planner, g *Graph, m *Machine, opts ...PlanOption) Replanner {
	return func(ctx context.Context, survivors int) (*Schedule, error) {
		mp, err := p.Replan(ctx, g, m, survivors, opts...)
		if err != nil {
			return nil, err
		}
		return mp.Schedule, nil
	}
}

// --- specification language ---

// SpecUnit is a compiled CM-task specification.
type SpecUnit = spec.Unit

// CompileSpec compiles a CM-task-style specification source into its
// hierarchical M-task graph.
func CompileSpec(src string) (*SpecUnit, error) { return spec.Compile(src) }

// --- experiments ---

// ExperimentTable is one table/figure regenerated from the paper.
type ExperimentTable = bench.Table

// RunExperiment regenerates a paper artifact by id ("table1", "fig13" ...
// "fig19", "ablation"); ExperimentIDs lists the valid ids.
func RunExperiment(id string) ([]*ExperimentTable, error) { return bench.Run(id) }

// ExperimentIDs returns the available experiment ids.
func ExperimentIDs() []string { return bench.ExperimentIDs() }

// --- hierarchical and dynamic scheduling ---

// HierarchicalSchedule schedules hierarchical graphs (composed nodes with
// body graphs) recursively.
type HierarchicalSchedule = core.HierarchicalSchedule

// DynTask is a dynamically created M-task (Tlib-style).
type DynTask = dynsched.Task

// DynCtx is the context of a dynamic M-task; DynCtx.SplitRun splits the
// group recursively.
type DynCtx = dynsched.Ctx

// RunDynamic executes a dynamic root task on all cores of the world.
func RunDynamic(w *World, root DynTask) error { return dynsched.Run(w, root) }

// --- multi-job machine scheduling ---

// JobAllocator is the two-level machine scheduler: it admits a stream of
// M-task jobs, carves an initial whole-node partition per job from the
// planner's moldable speedup model, runs each job's layer schedule inside
// its partition, and grows or shrinks running jobs at layer barriers as
// the mix changes (EASY-style backfill with a bounded-bypass starvation
// guard). See docs/SCHEDULING.md for policies and invariants.
type JobAllocator = dynsched.Allocator

// MachineJob is one M-task job submitted to a JobAllocator: a graph, its
// SPMD task bodies, and node bounds (Rigid jobs are never resized).
type MachineJob = dynsched.Job

// JobResult is the outcome of one job: partition history (initial/final
// nodes, every resize), queueing record (backfilled, bypass count), the
// execution Report, and the error if the job failed.
type JobResult = dynsched.JobResult

// JobResizeEvent records one applied grow or shrink of a running job.
type JobResizeEvent = dynsched.ResizeEvent

// NewJobAllocator returns a two-level scheduler over the machine backed
// by the planner. Configure the exported fields (MaxBypass,
// EfficiencyFloor, Trace, ...) before the first Submit or RunTrace.
func NewJobAllocator(m *Machine, p *Planner) (*JobAllocator, error) {
	return dynsched.NewAllocator(m, p)
}

// --- re-distribution planning ---

// RedistLayout describes a data distribution over a core group.
type RedistLayout = redist.Layout

// RedistPlan is the message set of one compiler-inserted re-distribution.
type RedistPlan = redist.Plan

// PlanRedistribution computes the point-to-point messages moving data from
// one distribution to another (the paper's TRe operations).
func PlanRedistribution(src, dst RedistLayout) (*RedistPlan, error) {
	return redist.NewPlan(src, dst)
}

// RenderGantt renders a simulated mapping as a text Gantt chart.
func RenderGantt(mp *Mapping, width int) (string, error) {
	model := &cost.Model{Machine: mp.Machine}
	prog, _, err := cluster.FromMapping(model, mp)
	if err != nil {
		return "", err
	}
	res, err := cluster.Simulate(model, prog)
	if err != nil {
		return "", err
	}
	return cluster.RenderGantt(prog, res, width), nil
}

// Version is the library version.
const Version = "1.0.0"

// Describe returns a one-line summary of a mapping for logs and examples.
func Describe(mp *Mapping) string {
	return fmt.Sprintf("%q on %s (%d cores, %d layers, %s mapping)",
		mp.Schedule.Source.Name, mp.Machine.Name, mp.Schedule.P,
		len(mp.Schedule.Layers), mp.Strategy.Name())
}
