package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	stdruntime "runtime"
	"time"

	"mtask/benchmark/report"
)

// sizes are the dimensions of the five workloads. The benchmark runs
// fullSizes; quickSizes exist for the smoke test, whose results are stamped
// quick and refused by compare.
type sizes struct {
	setups int // set-ups per run; setup_s is their median

	libTasks int // lib-wavefront graph size (the seed moves it by one step)

	odeN, odeSteps int // ode-layered system size and time steps per solver

	serveN     int // ODE system size of the request graphs (the seed moves it)
	hotSet     int // serve-hot: distinct bodies, far below cache capacity 256
	serveBlock int // requests per timed block (serve-churn: all distinct)
	replays    int // bodies replayed stage by stage per traced block

	jobStages int     // layers of a heavy job: one resize opportunity each
	jobWork   float64 // heavy job's sleep-nanoseconds per task on one core
	jobLights int     // light jobs around the two heavy ones
}

var fullSizes = sizes{
	setups:   5,
	libTasks: 200_000,
	odeN:     16384, odeSteps: 8,
	serveN: 40000, hotSet: 32, serveBlock: 800, replays: 16,
	jobStages: 20, jobWork: 80e6, jobLights: 10,
}

var quickSizes = sizes{
	setups:   1,
	libTasks: 4000,
	odeN:     512, odeSteps: 2,
	serveN: 4000, hotSet: 8, serveBlock: 48, replays: 4,
	jobStages: 4, jobWork: 8e6, jobLights: 4,
}

// blockResult is what one timed block of operations yields.
type blockResult struct {
	lat       []time.Duration // latency of each operation
	wall      time.Duration   // timed wall of the block (untimed checks excluded)
	failed    int             // operations an oracle rejected
	firstFail string
}

func (b *blockResult) fail(format string, args ...any) {
	b.failed++
	if b.firstFail == "" {
		b.firstFail = fmt.Sprintf(format, args...)
	}
}

// workload is one of the five input sets. All load comes from this process.
type workload interface {
	// setup generates the inputs from rng (the workload never sees the
	// seed), computes the references and warms up.
	setup(ctx context.Context, rng *rand.Rand, sz sizes) error
	// block runs one timed block of operations and checks every output.
	// p is nil in an untraced block. An error is a harness failure, not a
	// failed operation.
	block(ctx context.Context, p *probe, rep int) (blockResult, error)
	// finish records once-per-run per-layer samples after a traced pass.
	finish(p *probe) error
}

func newWorkload(name string, clients int) (workload, error) {
	switch name {
	case "lib-wavefront":
		return &libWavefront{}, nil
	case "ode-layered":
		return &odeLayered{}, nil
	case "serve-hot":
		return &serveLoad{clients: clients}, nil
	case "serve-churn":
		return &serveLoad{clients: clients, churn: true}, nil
	case "jobs-trace":
		return &jobsTrace{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// clientCount is the number of closed-loop callers of the serve workloads.
func clientCount() int {
	if n := stdruntime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// pass is the raw outcome of one measured pass.
type pass struct {
	lat, tracedLat []time.Duration // operation latencies of the untraced and the traced blocks
	throughput     []float64       // ops per second of each untraced block
	failed         int
	firstFail      string
	probe          *probe // nil for an untraced pass

	// Heap and GC deltas over the untraced blocks of a traced pass.
	mallocs, bytes uint64
	gcPause        time.Duration
}

// measure runs blocks for the given time. An untraced pass yields the
// end-to-end samples. A traced pass alternates untraced and traced blocks of
// the same workload: the traced ones feed the per-layer metrics, and the
// difference between the two kinds is the tracing overhead.
func measure(ctx context.Context, w workload, seconds float64, traced bool) (*pass, error) {
	ps := &pass{}
	minBlocks := 1
	if traced {
		ps.probe = newProbe()
		minBlocks = 2
	}
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for b := 0; b < minBlocks || time.Since(start) < budget; b++ {
		var p *probe
		if traced && b%2 == 1 {
			p = ps.probe
		}
		var before, after stdruntime.MemStats
		if traced {
			// Traced blocks leave the replays' garbage behind; collect it so
			// both kinds of block start alike and their difference is the
			// tracing, not the neighbour's heap.
			stdruntime.GC()
			if p == nil {
				stdruntime.ReadMemStats(&before)
			}
		}
		res, err := w.block(ctx, p, b)
		if err != nil {
			return nil, err
		}
		ps.failed += res.failed
		if ps.firstFail == "" {
			ps.firstFail = res.firstFail
		}
		if p != nil {
			ps.tracedLat = append(ps.tracedLat, res.lat...)
			continue
		}
		ps.lat = append(ps.lat, res.lat...)
		ps.throughput = append(ps.throughput, float64(len(res.lat))/res.wall.Seconds())
		if traced {
			stdruntime.ReadMemStats(&after)
			ps.mallocs += after.Mallocs - before.Mallocs
			ps.bytes += after.TotalAlloc - before.TotalAlloc
			ps.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
		}
	}
	if traced {
		if err := w.finish(ps.probe); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// endToEnd turns an untraced pass and the set-up times into the end-to-end
// metrics; the second result is the quantile latency_tail_ms was read at.
func endToEnd(ps *pass, setups []float64) (map[string]report.Stat, float64) {
	lat := make([]float64, len(ps.lat))
	for i, d := range ps.lat {
		lat[i] = millis(d)
	}
	stat := func(value float64, unit string, samples []float64) report.Stat {
		q1, q3 := report.Quartiles(samples)
		return report.Stat{Value: value, Unit: unit, Q1: q1, Q3: q3, N: len(samples)}
	}
	tail, q := report.Tail(lat)
	return map[string]report.Stat{
		"setup_s":         stat(report.Median(setups), "s", setups),
		"latency_p50_ms":  stat(report.Median(lat), "ms", lat),
		"latency_tail_ms": stat(tail, "ms", lat),
		"ops_per_s":       stat(report.Median(ps.throughput), "1/s", ps.throughput),
	}, q
}

// perLayer turns a traced pass into the per-layer metrics: "<span>_ms" from
// the spans, counts and ratios from the samples (each the median over
// operations), the stage arithmetic of deriveSelf, and the process's heap
// and tracing costs.
func perLayer(ps *pass) map[string]report.Stat {
	vals := make(map[string]float64)
	for name, samples := range ps.probe.samples {
		vals[name] = report.Median(samples)
	}
	for name, samples := range spanMillis(ps.probe.spans) {
		vals[name+"_ms"] = report.Median(samples)
	}
	deriveSelf(vals)
	ops := float64(len(ps.lat))
	vals["proc.allocs_per_op"] = float64(ps.mallocs) / ops
	vals["proc.alloc_kb_per_op"] = float64(ps.bytes) / 1024 / ops
	vals["proc.gc_pause_ms"] = millis(ps.gcPause) / ops
	vals["proc.trace_overhead_share"] = medianOf(ps.tracedLat)/medianOf(ps.lat) - 1
	vals["proc.stage_coverage"] = stageCoverage(ps.probe.spans)
	out := make(map[string]report.Stat, len(report.PerLayer))
	for _, m := range report.PerLayer {
		out[m.Name] = report.Stat{Value: vals[m.Name], Unit: m.Unit}
	}
	return out
}

// deriveSelf computes the self times no span can measure from outside: each
// is a stage's time minus the standalone replays of the stages inside it,
// never negative (replays and the stage are timed on different calls).
func deriveSelf(v map[string]float64) {
	positive := func(x float64) float64 { return math.Max(0, x) }
	if sched, ok := v["core.schedule_ms"]; ok {
		v["core.search_ms"] = positive(sched - v["graph.validate_ms"] - v["graph.contract_ms"] - v["graph.layers_ms"])
		if cold, ok := v["plan.cold_ms"]; ok {
			v["plan.self_ms"] = positive(cold - sched - v["core.map_ms"])
		}
	}
	if handler, ok := v["serve.handler_ms"]; ok {
		hit := v["plan.cache_hit_ratio"]
		planned := hit*v["plan.hit_ms"] + (1-hit)*v["plan.cold_ms"]
		v["serve.self_ms"] = positive(handler - v["graph.decode_ms"] - planned)
	}
}

// runWorkload sets a workload up (several times: setup_s is the median),
// then measures the requested passes on the last set-up.
func runWorkload(ctx context.Context, name string, seed int64, sz sizes, seconds float64,
	untraced, traced bool) (*report.WorkloadResult, []span, error) {

	index := -1
	for i, w := range report.Workloads {
		if w.Name == name {
			index = i
		}
	}
	if index < 0 {
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	var w workload
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		var err error
		if w, err = newWorkload(name, clientCount()); err != nil {
			return nil, nil, err
		}
		// Every set-up draws the same inputs: one stream per workload.
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(index)))
		t0 := time.Now()
		if err := w.setup(ctx, rng, sz); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	res := &report.WorkloadResult{Name: name}
	var spans []span
	for _, withTrace := range []bool{false, true} {
		if (withTrace && !traced) || (!withTrace && !untraced) {
			continue
		}
		ps, err := measure(ctx, w, seconds, withTrace)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		res.Attempted += len(ps.lat) + len(ps.tracedLat)
		res.Failed += ps.failed
		if res.FirstFail == "" {
			res.FirstFail = ps.firstFail
		}
		if withTrace {
			res.PerLayer = perLayer(ps)
			spans = ps.probe.spans
		} else {
			res.EndToEnd, res.TailQ = endToEnd(ps, setups)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, spans, nil
}
