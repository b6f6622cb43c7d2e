package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"mtask/internal/arch"
	"mtask/internal/graph"
	"mtask/internal/ode"
	"mtask/internal/plan"
	"mtask/internal/serve"
)

// serveLoad drives the planning service in process: a closed loop of
// `clients` callers, each posting its next /v1/plan body to
// serve.Server.Handler() (no sockets) only after the previous reply. One
// operation is one request.
//
// serve-hot sends a hot set far below the cache capacity, warmed first, so
// every request is a cache hit and JSON decode, fingerprinting and response
// encoding dominate. serve-churn sends a block of never-repeated bodies —
// 70% "cold" (their own system size, so no layer was seen before), 30%
// "extend" (an earlier cold body of the block with one more time step, so
// the family index patches it incrementally) — and purges the schedule
// cache and the family index before each block, so g-search, cost model and
// the cache's insert/evict path run on every request.
type serveLoad struct {
	clients int
	churn   bool

	srv     *serve.Server
	handler http.Handler
	bodies  []serveBody
	order   []int         // request i of a block posts bodies[order[i]]
	mirror  *plan.Planner // replays the handler's planner calls standalone
	replays int
}

type reqClass int

const (
	classHot    reqClass = iota // expect cached
	classCold                   // expect neither cached nor incremental
	classExtend                 // expect incremental
)

// serveBody is one request body with what its reply must say.
type serveBody struct {
	json  []byte
	class reqClass
	ref   *planRef // nil: only status and flags are checked
}

// planRef is the reference plan of a body, from a separate cache-less,
// sequential planner.
type planRef struct {
	makespan    float64
	layerGroups []int
}

// Request graphs: the five solver configurations of the paper's evaluation
// at 8 to 16 time steps. Body i has shape (i mod 5, 8 + i mod 9), so 45
// consecutive bodies are 45 distinct shapes and every block has the same
// shape mix whatever the seed; the seed draws the system sizes.
const (
	serveSolvers  = 5
	serveMinSteps = 8
	serveStepSpan = 9
	serveCores    = 256
)

func serveGraph(solver, n, steps int) *graph.Graph {
	const evalFlops = 600
	switch solver {
	case 0:
		return ode.BuildEPOLGraph(n, evalFlops, 8, steps)
	case 1:
		return ode.BuildIRKGraph(n, evalFlops, 4, 2, steps)
	case 2:
		return ode.BuildDIIRKGraph(n, evalFlops, 4, 2, steps)
	case 3:
		return ode.BuildPABGraph(n, evalFlops, 8, 0, steps)
	default:
		return ode.BuildPABGraph(n, evalFlops, 8, 2, steps)
	}
}

// extendGap is how many requests lie at least between an extend body and
// the cold body it extends: far more than the callers in flight, so the
// base has been planned when the extension arrives.
const extendGap = 32

// generateBodies draws one workload's bodies from rng. Every body has its
// own system size, so no two share a fingerprint; an extend body repeats
// its base's size with one more step.
func generateBodies(rng *rand.Rand, sz sizes, churn bool) ([]serveBody, error) {
	count := sz.hotSet
	if churn {
		count = sz.serveBlock
	}
	machine := arch.CHiC().SubsetCores(serveCores)
	type shape struct{ solver, n, steps int }
	shapes := make([]shape, count)
	class := make([]reqClass, count)
	for i := range shapes {
		// Strictly increasing sizes: distinct whatever rng draws.
		shapes[i] = shape{i % serveSolvers, sz.serveN + 8*i + rng.Intn(8), serveMinSteps + i%serveStepSpan}
		class[i] = classCold
		if !churn {
			class[i] = classHot
		}
	}
	if churn {
		// 30% of the block, at seeded positions, extends the cold bodies in
		// block order, each base once.
		slots := rng.Perm(count - extendGap)
		if want := count * 3 / 10; want < len(slots) {
			slots = slots[:want]
		}
		for _, e := range slots {
			class[extendGap+e] = classExtend
		}
		base := 0
		for i := extendGap; i < count; i++ {
			if class[i] != classExtend {
				continue
			}
			for base <= i-extendGap && class[base] != classCold {
				base++
			}
			if base > i-extendGap {
				class[i] = classCold // no base far enough back
				continue
			}
			shapes[i] = shape{shapes[base].solver, shapes[base].n, shapes[base].steps + 1}
			base++
		}
	}
	bodies := make([]serveBody, count)
	for i, s := range shapes {
		data, err := json.Marshal(&serve.PlanRequest{Graph: serveGraph(s.solver, s.n, s.steps), Machine: machine})
		if err != nil {
			return nil, err
		}
		bodies[i] = serveBody{json: data, class: class[i]}
	}
	return bodies, nil
}

func (s *serveLoad) setup(ctx context.Context, rng *rand.Rand, sz sizes) error {
	var err error
	if s.bodies, err = generateBodies(rng, sz, s.churn); err != nil {
		return err
	}
	s.replays = sz.replays
	s.order = s.order[:0]
	if s.churn {
		for i := range s.bodies {
			s.order = append(s.order, i)
		}
	} else {
		for len(s.order) < sz.serveBlock {
			s.order = append(s.order, rng.Perm(len(s.bodies))...)
		}
		s.order = s.order[:sz.serveBlock]
	}

	// mtaskd's defaults: a sharded 256-mapping cache, no quotas, no
	// admission limit. The mirror planner is built the same way.
	s.srv = serve.New()
	s.handler = s.srv.Handler()
	s.mirror = plan.NewWithCache(plan.NewShardedCache(plan.DefaultCacheSize, plan.DefaultShards))

	// Reference plans: every hot body (which also warms the mirror), a
	// seeded 5% of the churn bodies.
	refPlanner := plan.New(plan.WithoutCache(), plan.WithoutIncremental(), plan.WithParallelism(1))
	for i := range s.bodies {
		if s.churn && rng.Intn(20) != 0 {
			continue
		}
		var req serve.PlanRequest
		if err := json.Unmarshal(s.bodies[i].json, &req); err != nil {
			return err
		}
		mp, err := refPlanner.Plan(ctx, req.Graph, req.Machine)
		if err != nil {
			return err
		}
		ref := &planRef{makespan: mp.Schedule.Time}
		for _, ls := range mp.Schedule.Layers {
			ref.layerGroups = append(ref.layerGroups, ls.NumGroups())
		}
		s.bodies[i].ref = ref
		if !s.churn {
			if _, err := s.mirror.Plan(ctx, req.Graph, req.Machine); err != nil {
				return err
			}
		}
	}

	// Warm-up: the hot set once through the server (the block order starts
	// with a permutation of it), or a quarter block of churn.
	warm := s.order[:len(s.order)/4]
	if !s.churn {
		warm = s.order[:len(s.bodies)]
	}
	_, replies := s.send(nil, 0, warm)
	for _, r := range replies {
		if r.code != http.StatusOK {
			return fmt.Errorf("warm-up request answered %d: %.120s", r.code, r.body)
		}
	}
	return nil
}

// reply is what the handler answered to one request.
type reply struct {
	code int
	body []byte
}

// send posts the listed bodies through the handler from the closed loop of
// callers and returns latencies, timed wall and replies in request order.
func (s *serveLoad) send(p *probe, rep int, order []int) (blockResult, []reply) {
	res := blockResult{lat: make([]time.Duration, len(order))}
	replies := make([]reply, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(s.bodies[order[i]].json))
				rec := httptest.NewRecorder()
				sp := p.begin("serve.handler", noSpan, rep)
				start := time.Now()
				s.handler.ServeHTTP(rec, req)
				res.lat[i] = time.Since(start)
				p.end(sp)
				replies[i] = reply{code: rec.Code, body: rec.Body.Bytes()}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(t0)
	return res, replies
}

func (s *serveLoad) block(ctx context.Context, p *probe, rep int) (blockResult, error) {
	if s.churn {
		s.srv.Planner().Cache().Purge()
		s.srv.Planner().PurgeIncremental()
	}
	before := s.srv.Metrics()
	res, replies := s.send(p, rep, s.order)
	after := s.srv.Metrics()

	var reqBytes, respBytes int
	for i, r := range replies {
		body := &s.bodies[s.order[i]]
		reqBytes += len(body.json)
		respBytes += len(r.body)
		if err := body.check(r); err != nil {
			res.fail("request %d: %v", i, err)
		}
	}
	if p == nil {
		return res, nil
	}

	d := func(name string) float64 { return float64(after[name] - before[name]) }
	observePlanCounters(p, after, before)
	p.observe("plan.cold_plans", d("serve.plans_cold")+d("serve.plans_incremental"))
	p.observe("plan.incremental_plans", d("serve.plans_incremental"))
	p.observe("plan.reused_layers", d("serve.incremental_layers_reused"))
	p.observe("serve.shed", d("serve.shed"))
	p.observe("serve.request_kb", float64(reqBytes)/1024/float64(len(replies)))
	p.observe("serve.response_kb", float64(respBytes)/1024/float64(len(replies)))
	return res, s.replay(ctx, p, rep, replies)
}

// check is the serve oracle: status 200, the flags the body's class
// predicts, and — where a reference plan exists — the reference's makespan
// and per-layer group counts.
func (b *serveBody) check(r reply) error {
	if r.code != http.StatusOK {
		return fmt.Errorf("status %d: %.120s", r.code, r.body)
	}
	var resp serve.PlanResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return fmt.Errorf("undecodable reply: %w", err)
	}
	wantCached, wantIncremental := b.class == classHot, b.class == classExtend
	if resp.Cached != wantCached || resp.Incremental != wantIncremental || resp.Degraded {
		return fmt.Errorf("reply says cached=%v incremental=%v degraded=%v, want cached=%v incremental=%v",
			resp.Cached, resp.Incremental, resp.Degraded, wantCached, wantIncremental)
	}
	if b.ref == nil {
		return nil
	}
	if resp.Makespan != b.ref.makespan || resp.Layers != len(b.ref.layerGroups) ||
		!reflect.DeepEqual(resp.LayerGroups, b.ref.layerGroups) {
		return fmt.Errorf("plan differs from the reference: makespan %v layers %d groups %v, want %v %d %v",
			resp.Makespan, resp.Layers, resp.LayerGroups, b.ref.makespan, len(b.ref.layerGroups), b.ref.layerGroups)
	}
	return nil
}

// replay times, standalone and single-threaded, the stages the handler ran
// for the first bodies of the block: decode, fingerprint, the planner call
// (a hit on the warmed mirror, or a cold plan on a purged one), the
// scheduler stages behind a cold plan, and the encoding of the reply.
func (s *serveLoad) replay(ctx context.Context, p *probe, rep int, replies []reply) error {
	if s.churn {
		s.mirror.Cache().Purge()
		s.mirror.PurgeIncremental()
	}
	for i := 0; i < s.replays && i < len(s.order); i++ {
		body := &s.bodies[s.order[i]]
		root := p.begin("replay", noSpan, rep)

		var req serve.PlanRequest
		sp := p.begin("graph.decode", root, rep)
		err := json.Unmarshal(body.json, &req)
		p.end(sp)
		if err != nil {
			return err
		}

		if s.churn {
			var info plan.Info
			sp := p.begin("plan.cold", root, rep)
			_, err := s.mirror.Plan(ctx, req.Graph, req.Machine, plan.WithInfo(&info))
			p.end(sp)
			if err != nil {
				return err
			}
			if !info.Cold {
				return fmt.Errorf("mirror planner did not plan %q cold", req.Graph.Name)
			}
			if _, err := replayPlanStages(ctx, p, root, rep, req.Graph, req.Machine, req.Machine.TotalCores()); err != nil {
				return err
			}
		} else {
			sp := p.begin("plan.fingerprint", root, rep)
			plan.GraphFingerprint(req.Graph)
			plan.MachineFingerprint(req.Machine)
			p.end(sp)
			if err := replayHit(ctx, p, root, rep, s.mirror, req.Graph, req.Machine); err != nil {
				return err
			}
		}

		var resp serve.PlanResponse
		if err := json.Unmarshal(replies[i].body, &resp); err != nil {
			return err
		}
		sp = p.begin("serve.encode", root, rep)
		_, err = json.Marshal(&resp)
		p.end(sp)
		if err != nil {
			return err
		}
		p.end(root)
	}
	return nil
}

func (s *serveLoad) finish(*probe) error { return nil }
