package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mtask/internal/arch"
	"mtask/internal/core"
	"mtask/internal/fault"
	"mtask/internal/graph"
	"mtask/internal/ode"
	"mtask/internal/plan"
)

// buildPlanResponse summarizes a mapping. It is the reply the handler used
// to build and hand to json.Encoder; with referenceReply it stays here as
// the reference the rendered replies are held to, byte for byte.
func buildPlanResponse(mp *core.Mapping, info plan.Info) *PlanResponse {
	s := mp.Schedule
	resp := &PlanResponse{
		Graph:              s.Source.Name,
		Machine:            mp.Machine.Name,
		GraphFingerprint:   fmt.Sprintf("%016x", plan.GraphFingerprint(s.Source)),
		MachineFingerprint: fmt.Sprintf("%016x", plan.MachineFingerprint(mp.Machine)),
		Strategy:           mp.Strategy.Name(),
		P:                  s.P,
		Layers:             len(s.Layers),
		LayerGroups:        make([]int, len(s.Layers)),
		Makespan:           s.Time,
		Cached:             info.CacheHit,
		Coalesced:          info.Coalesced,
		Degraded:           info.Degraded,
		Incremental:        info.Incremental,
		ReusedLayers:       info.ReusedLayers,
		PatchedLayers:      info.PatchedLayers,
	}
	for li, layer := range s.Layers {
		resp.LayerGroups[li] = layer.NumGroups()
		for gi, tasks := range layer.Groups {
			cores := mp.Cores[li][gi]
			labels := make([]string, len(cores))
			for ci, c := range cores {
				labels[ci] = c.String()
			}
			for _, id := range tasks {
				resp.Placements = append(resp.Placements, TaskPlacement{
					Task:  s.Graph.Task(id).Name,
					Layer: li,
					Group: gi,
					Cores: labels,
				})
			}
		}
	}
	return resp
}

func referenceReply(t testing.TB, mp *core.Mapping, info plan.Info) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(buildPlanResponse(mp, info)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// solverGraph builds one of the five solver configurations of the paper's
// evaluation at test scale.
func solverGraph(solver, steps int) *graph.Graph {
	switch solver {
	case 0:
		return ode.BuildEPOLGraph(4000, 600, 8, steps)
	case 1:
		return ode.BuildIRKGraph(4000, 600, 4, 2, steps)
	case 2:
		return ode.BuildDIIRKGraph(4000, 600, 4, 2, steps)
	case 3:
		return ode.BuildPABGraph(4000, 600, 8, 0, steps)
	default:
		return ode.BuildPABGraph(4000, 600, 8, 2, steps)
	}
}

// awkwardGraph names its tasks with everything json.Encoder escapes: the
// HTML-sensitive characters, quotes and backslashes, control characters,
// non-ASCII, U+2028 and invalid UTF-8.
func awkwardGraph() *graph.Graph {
	g := graph.New(`g<&>"\ é`)
	a := g.AddBasic(`a<b>&"c"\d`, 100)
	b := g.AddBasic("tab\tnl\nnul\x00del\x7f", 200)
	c := g.AddBasic("é—日本\u2028\u2029", 300)
	d := g.AddBasic("bad\xff\xfeutf8", 400)
	g.AddBasic("", 50)
	g.MustEdge(a, c, 8)
	g.MustEdge(b, c, 8)
	g.MustEdge(c, d, 8)
	return g
}

func requestBody(t testing.TB, g *graph.Graph, m *arch.Machine, opts PlanOptions) []byte {
	t.Helper()
	body, err := json.Marshal(&PlanRequest{Graph: g, Machine: m, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestRenderMatchesEncoder holds renderPlanPrefix + appendPlanTail to the
// encoder over the solver graphs, the mapping strategies, a machine whose
// name needs escaping and every combination of reply flags.
func TestRenderMatchesEncoder(t *testing.T) {
	infos := []plan.Info{
		{Cold: true},
		{CacheHit: true},
		{Coalesced: true},
		{Degraded: true},
		{Cold: true, Incremental: true, ReusedLayers: 7, PatchedLayers: 2},
		{Cold: true, Incremental: true, ReusedLayers: 3},
		{CacheHit: true, Coalesced: true, Degraded: true, Incremental: true, ReusedLayers: -1, PatchedLayers: 1 << 40},
	}
	odd := arch.CHiC().SubsetCores(8)
	odd.Name = "m<1>&\"é\""
	planner := plan.New()
	check := func(g *graph.Graph, m *arch.Machine, opts ...plan.Option) {
		t.Helper()
		mp, err := planner.Plan(context.Background(), g, m, opts...)
		if err != nil {
			t.Fatal(err)
		}
		prefix, err := renderPlanPrefix(mp)
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range infos {
			got := appendPlanTail(append([]byte(nil), prefix...), info)
			if want := referenceReply(t, mp, info); !bytes.Equal(got, want) {
				t.Fatalf("%s on %s, %+v: rendered reply differs from the encoder's\n got %s\nwant %s",
					g.Name, m.Name, info, got, want)
			}
		}
	}
	for solver := 0; solver < 5; solver++ {
		g := solverGraph(solver, 2)
		check(g, arch.CHiC().SubsetCores(16))
		check(g, arch.CHiC().SubsetCores(64), plan.WithStrategy(core.Scattered{}))
		check(g, arch.JuRoPA().SubsetCores(32), plan.WithStrategy(core.Mixed{D: 2}), plan.WithCores(24))
	}
	check(awkwardGraph(), odd)
	check(awkwardGraph(), odd, plan.WithForceGroups(3))
}

// replyChecker holds handler replies to the reference: it finds the mapping
// a reply was rendered from by planning the request again (a cache hit
// returning that same mapping) and encodes it with the flags the reply
// carries.
type replyChecker struct {
	t *testing.T
	s *Server
}

func (c replyChecker) mapping(reqBody []byte) *core.Mapping {
	c.t.Helper()
	req, err := decodePlanRequest(reqBody)
	if err != nil {
		c.t.Fatal(err)
	}
	opts, err := req.planOpts()
	if err != nil {
		c.t.Fatal(err)
	}
	mp, err := c.s.Planner().Plan(context.Background(), req.Graph, req.Machine, opts...)
	if err != nil {
		c.t.Fatal(err)
	}
	return mp
}

// check compares a 200 reply with the reference built from planned (the
// body whose mapping the reply must show) and returns its flags.
func (c replyChecker) check(w *httptest.ResponseRecorder, planned []byte) PlanResponse {
	c.t.Helper()
	if w.Code != http.StatusOK {
		c.t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		c.t.Fatalf("Content-Type %q", ct)
	}
	var resp PlanResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		c.t.Fatal(err)
	}
	info := plan.Info{
		CacheHit: resp.Cached, Coalesced: resp.Coalesced, Degraded: resp.Degraded,
		Incremental: resp.Incremental, ReusedLayers: resp.ReusedLayers, PatchedLayers: resp.PatchedLayers,
	}
	if want := referenceReply(c.t, c.mapping(planned), info); !bytes.Equal(w.Body.Bytes(), want) {
		c.t.Fatalf("reply (%+v) differs from the encoder's\n got %s\nwant %s", info, w.Body, want)
	}
	return resp
}

// TestRepliesByteIdentical drives every reply kind through the handler —
// cold, hit (first and memoized), incremental, coalesced, degraded — and
// holds each body to the encoder's.
func TestRepliesByteIdentical(t *testing.T) {
	m := arch.CHiC().SubsetCores(16)

	t.Run("cold hit incremental", func(t *testing.T) {
		s := New()
		h, c := s.Handler(), replyChecker{t, s}
		for _, g := range []*graph.Graph{solverGraph(4, 2), awkwardGraph()} {
			body := requestBody(t, g, m, PlanOptions{})
			if r := c.check(post(h, "/v1/plan", body, ""), body); r.Cached {
				t.Fatalf("%s: first reply cached", g.Name)
			}
			for i := 0; i < 3; i++ { // the first hit fills the memo, the rest read it
				if r := c.check(post(h, "/v1/plan", body, ""), body); !r.Cached {
					t.Fatalf("%s: repeat %d not cached", g.Name, i)
				}
			}
		}
		ext := requestBody(t, solverGraph(4, 3), m, PlanOptions{})
		if r := c.check(post(h, "/v1/plan", ext, ""), ext); !r.Incremental || r.ReusedLayers == 0 {
			t.Fatalf("extended graph not planned incrementally: %+v", r)
		}
	})

	t.Run("coalesced", func(t *testing.T) {
		release := make(chan struct{})
		s := New(WithPlanner(blockingPlanner(release)))
		h, c := s.Handler(), replyChecker{t, s}
		body := requestBody(t, solverGraph(1, 2), m, PlanOptions{})
		const clients = 8
		replies := make([]*httptest.ResponseRecorder, clients)
		var wg sync.WaitGroup
		for i := range replies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				replies[i] = post(h, "/v1/plan", body, "")
			}()
		}
		// Every client has missed the cache; joining the leader's flight is
		// the planner's very next step.
		for s.Metrics()["plan.cache_misses"] < clients {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(10 * time.Millisecond)
		close(release)
		wg.Wait()
		coalesced := 0
		for _, w := range replies {
			if c.check(w, body).Coalesced {
				coalesced++
			}
		}
		if coalesced == 0 {
			t.Fatal("no reply was coalesced")
		}
	})

	t.Run("degraded", func(t *testing.T) {
		s := New(
			WithDegraded(20*time.Millisecond, 0),
			WithChaos(&fault.ServeInjector{Seed: 7, Script: []fault.ServeScript{
				{Point: fault.PointColdPlan, Seq: 2, Kind: fault.Delay, Delay: 2 * time.Second},
				{Point: fault.PointColdPlan, Seq: 3, Kind: fault.Delay, Delay: 2 * time.Second},
			}}))
		h, c := s.Handler(), replyChecker{t, s}
		warm := requestBody(t, awkwardGraph(), m, PlanOptions{})
		c.check(post(h, "/v1/plan", warm, ""), warm)
		// Same family, new cache keys, stalled cold plans: both are answered
		// with the warm mapping, the second from the memo.
		for _, force := range []int{2, 3} {
			stalled := requestBody(t, awkwardGraph(), m, PlanOptions{ForceGroups: force})
			if r := c.check(post(h, "/v1/plan", stalled, ""), warm); !r.Degraded {
				t.Fatalf("force_groups %d: reply not degraded: %+v", force, r)
			}
		}
		if n := s.Metrics()["serve.render.len"]; n != 1 {
			t.Fatalf("serve.render.len = %d after two degraded replies of one mapping, want 1", n)
		}
	})
}

// TestRenderMemoBounded: only replies served from the cache fill the memo,
// it never holds more than the cache's capacity, and a purge leaves at most
// that much behind.
func TestRenderMemoBounded(t *testing.T) {
	const capacity, extra = 4, 3
	s := New(WithCache(capacity, 1))
	h := s.Handler()
	m := arch.CHiC().SubsetCores(16)
	renderLen := func() int64 { return s.Metrics()["serve.render.len"] }
	twice := func(steps int) {
		t.Helper()
		body := requestBody(t, solverGraph(3, steps), m, PlanOptions{})
		for i := 0; i < 2; i++ {
			if w := post(h, "/v1/plan", body, ""); w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body)
			}
		}
	}

	if w := post(h, "/v1/plan", requestBody(t, solverGraph(3, 1), m, PlanOptions{}), ""); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if n := renderLen(); n != 0 {
		t.Fatalf("a cold reply left %d memo entries", n)
	}
	for steps := 1; steps <= capacity+extra; steps++ {
		twice(steps)
		if n := renderLen(); n > capacity {
			t.Fatalf("memo holds %d entries after %d hot bodies, capacity %d", n, steps, capacity)
		}
	}
	if n := renderLen(); n != capacity {
		t.Fatalf("memo holds %d entries after %d hot bodies, want it full at %d", n, capacity+extra, capacity)
	}

	s.Planner().Cache().Purge()
	for steps := 20; steps < 20+capacity+extra; steps++ {
		twice(steps)
		if n := renderLen(); n > capacity {
			t.Fatalf("memo holds %d entries after a purge, capacity %d", n, capacity)
		}
	}
	if !strings.Contains(get(h, "/metricz").Body.String(), fmt.Sprintf("serve.render.len %d", capacity)) {
		t.Fatal("/metricz does not report serve.render.len")
	}
}

// TestConcurrentFirstHits races the memo's fill: many first hits of one
// warmed fingerprint at once all get the reference body. Run under -race.
func TestConcurrentFirstHits(t *testing.T) {
	s := New()
	h, c := s.Handler(), replyChecker{t, s}
	body := requestBody(t, solverGraph(2, 2), arch.CHiC().SubsetCores(16), PlanOptions{})
	c.check(post(h, "/v1/plan", body, ""), body)

	const clients = 16
	replies := make([]*httptest.ResponseRecorder, clients)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range replies {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			replies[i] = post(h, "/v1/plan", body, "")
		}()
	}
	start.Done()
	done.Wait()
	for i, w := range replies {
		if !c.check(w, body).Cached {
			t.Fatalf("reply %d not cached", i)
		}
		if !bytes.Equal(w.Body.Bytes(), replies[0].Body.Bytes()) {
			t.Fatalf("reply %d differs from reply 0", i)
		}
	}
	if n := s.Metrics()["serve.render.len"]; n != 1 {
		t.Fatalf("serve.render.len = %d, want 1", n)
	}
}

// TestBodyFraming pins how a body is delimited: it is exactly one JSON
// value (bytes after it are a 400 — json.Decoder used to ignore them), and
// a body over the size limit is a 400 however little of it is needed.
func TestBodyFraming(t *testing.T) {
	body := testRequestBody(t, 2, PlanOptions{})
	s := New()
	h := s.Handler()
	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"exact", body, http.StatusOK},
		{"trailing whitespace", append(append([]byte(nil), body...), " \n\t"...), http.StatusOK},
		{"trailing garbage", append(append([]byte(nil), body...), 'x'), http.StatusBadRequest},
		{"second value", append(append([]byte(nil), body...), body...), http.StatusBadRequest},
		{"empty", nil, http.StatusBadRequest},
	} {
		if w := post(h, "/v1/plan", tc.body, ""); w.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.want, w.Body)
		}
	}

	small := New(WithMaxBodyBytes(int64(len(body) - 1))).Handler()
	w := post(small, "/v1/plan", body, "")
	if w.Code != http.StatusBadRequest || errorCode(t, w) != "invalid_argument" ||
		!strings.Contains(w.Body.String(), "request body too large") {
		t.Fatalf("over the size limit: status %d: %s", w.Code, w.Body)
	}
}

// BenchmarkPlanHit times the handler on a warmed benchmark-scale body: a
// cache hit answered from the rendered-reply memo.
func BenchmarkPlanHit(b *testing.B) {
	h := New().Handler()
	body := requestBody(b, ode.BuildPABGraph(4000, 600, 8, 2, 12), arch.CHiC().SubsetCores(256), PlanOptions{})
	for i := 0; i < 2; i++ {
		if w := post(h, "/v1/plan", body, ""); w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := post(h, "/v1/plan", body, ""); w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}
