package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mtask/internal/arch"
	"mtask/internal/graph"
	"mtask/internal/ode"
)

// testRequestBody marshals a solver-graph plan request at small scale;
// steps varies the graph fingerprint.
func testRequestBody(t *testing.T, steps int, opts PlanOptions) []byte {
	t.Helper()
	return requestBody(t, ode.BuildPABGraph(4000, 600, 8, 2, steps), arch.CHiC().SubsetCores(16), opts)
}

func post(h http.Handler, path string, body []byte, tenant string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestPlanEndpoint(t *testing.T) {
	s := New()
	h := s.Handler()
	body := testRequestBody(t, 2, PlanOptions{Strategy: "scattered"})

	w := post(h, "/v1/plan", body, "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp PlanResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Graph == "" || resp.Machine == "" || resp.P != 16 || resp.Layers < 1 {
		t.Fatalf("malformed response: %+v", resp)
	}
	if resp.Strategy != "scattered" {
		t.Fatalf("strategy %q, want scattered", resp.Strategy)
	}
	if resp.Makespan <= 0 {
		t.Fatalf("non-positive makespan %v", resp.Makespan)
	}
	if len(resp.Placements) == 0 || len(resp.LayerGroups) != resp.Layers {
		t.Fatalf("missing placements/layer groups: %+v", resp)
	}
	total := 0
	for _, p := range resp.Placements {
		if len(p.Cores) == 0 {
			t.Fatalf("task %q placed on no cores", p.Task)
		}
		total++
	}
	if resp.Cached || resp.Coalesced {
		t.Fatalf("first request reported cached=%v coalesced=%v", resp.Cached, resp.Coalesced)
	}

	// An identical request is served from the sharded cache.
	w = post(h, "/v1/plan", body, "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp2 PlanResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached {
		t.Fatal("second identical request not served from cache")
	}
	if resp2.Makespan != resp.Makespan {
		t.Fatalf("cached makespan %v != cold %v", resp2.Makespan, resp.Makespan)
	}

	m := s.Metrics()
	if m["serve.requests"] != 2 || m["serve.plans_cold"] != 1 || m["serve.cache_hits"] != 1 {
		t.Fatalf("metrics: %v", m)
	}
}

// TestPlanEndpointIncremental extends a previously planned solver graph by
// one time step: the new fingerprint misses the whole-mapping cache, but
// the planner adopts the remembered layer schedules of the family, and the
// serving layer surfaces that as its own outcome — in the response body,
// in the serve.* counters and (via the shared recorder) in the plan.*
// counters on /metricz.
func TestPlanEndpointIncremental(t *testing.T) {
	s := New()
	h := s.Handler()

	if w := post(h, "/v1/plan", testRequestBody(t, 2, PlanOptions{}), ""); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	w := post(h, "/v1/plan", testRequestBody(t, 3, PlanOptions{}), "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp PlanResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached || !resp.Incremental || resp.ReusedLayers == 0 {
		t.Fatalf("extended graph not served incrementally: %+v", resp)
	}
	if resp.ReusedLayers+resp.PatchedLayers != resp.Layers {
		t.Fatalf("layer split %d+%d != %d layers",
			resp.ReusedLayers, resp.PatchedLayers, resp.Layers)
	}

	m := s.Metrics()
	if m["serve.plans_cold"] != 1 || m["serve.plans_incremental"] != 1 {
		t.Fatalf("serve outcome counters: %v", m)
	}
	if m["serve.incremental_layers_reused"] != int64(resp.ReusedLayers) {
		t.Fatalf("reused-layer counter %d, response says %d",
			m["serve.incremental_layers_reused"], resp.ReusedLayers)
	}
	if m["plan.incremental_hits"] != 1 {
		t.Fatalf("plan.* counters not exposed through the serve recorder: %v", m)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	s := New()
	w := post(s.Handler(), "/v1/simulate", testRequestBody(t, 2, PlanOptions{}), "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Makespan <= 0 || resp.CompTime <= 0 {
		t.Fatalf("implausible simulation: %+v", resp)
	}
}

func TestQuotaExhaustionReturns429(t *testing.T) {
	s := New(WithQuota(1e-9, 2)) // 2 requests, then effectively no refill
	h := s.Handler()
	body := testRequestBody(t, 2, PlanOptions{})

	for i := 0; i < 2; i++ {
		if w := post(h, "/v1/plan", body, "alice"); w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body)
		}
	}
	w := post(h, "/v1/plan", body, "alice")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "quota_exceeded" || !strings.Contains(er.Error, "quota") {
		t.Fatalf("error body: %+v", er)
	}

	// Another tenant is unaffected.
	if w := post(h, "/v1/plan", body, "bob"); w.Code != http.StatusOK {
		t.Fatalf("tenant bob: status %d: %s", w.Code, w.Body)
	}
	if m := s.Metrics(); m["serve.rejected"] != 1 {
		t.Fatalf("serve.rejected = %d, want 1", m["serve.rejected"])
	}
}

func TestBadRequests(t *testing.T) {
	s := New()
	h := s.Handler()
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"not json", []byte(`{"graph":`)},
		{"no machine", []byte(`{"graph":{"name":"g","tasks":[{"name":"a","work":1}]}}`)},
		{"no graph", []byte(`{"machine":{"Name":"m","Nodes":1,"ProcsPerNode":1,"CoresPerProc":2,"CoreGFlops":1}}`)},
		{"bad strategy", testRequestBody(t, 1, PlanOptions{Strategy: "zigzag"})},
		{"cyclic graph", []byte(`{"graph":{"name":"c","tasks":[{"name":"a","work":1},{"name":"b","work":1}],` +
			`"edges":[{"from":0,"to":1},{"from":1,"to":0}]},` +
			`"machine":{"Name":"m","Nodes":1,"ProcsPerNode":1,"CoresPerProc":2,"CoreGFlops":1,` +
			`"Links":[{},{"Latency":1e-6,"Bandwidth":1e9},{"Latency":1e-6,"Bandwidth":1e9},{"Latency":1e-6,"Bandwidth":1e9}]}}`)},
	} {
		w := post(h, "/v1/plan", tc.body, "")
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, w.Code, w.Body)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
			t.Errorf("%s: non-JSON error body %q", tc.name, w.Body)
		} else if er.Code != "invalid_argument" {
			t.Errorf("%s: code %q, want invalid_argument", tc.name, er.Code)
		}
	}
}

func TestHealthAndMetricz(t *testing.T) {
	s := New()
	h := s.Handler()

	req := httptest.NewRequest("GET", "/healthz", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", w.Code, w.Body)
	}

	post(h, "/v1/plan", testRequestBody(t, 2, PlanOptions{}), "")
	req = httptest.NewRequest("GET", "/metricz", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("metricz status %d", w.Code)
	}
	for _, want := range []string{"serve.requests 1", "serve.plans_cold 1", "serve.cache.len 1", "serve.cache.shard"} {
		if !strings.Contains(w.Body.String(), want) {
			t.Fatalf("metricz missing %q:\n%s", want, w.Body)
		}
	}
}

// TestConcurrentRequestsCoalesce hammers one and four fingerprints from
// many clients concurrently and checks the singleflight contract at the
// HTTP boundary: every response is 200, all responses for one fingerprint
// carry the identical makespan, and exactly one cold plan ran per
// fingerprint — everything else was a cache hit or a coalesced follower.
// The fingerprints differ in ForceGroups, so each is its own plan family
// and none can be served incrementally. Run under -race.
func TestConcurrentRequestsCoalesce(t *testing.T) {
	for _, fingerprints := range []int{1, 4} {
		s := New()
		h := s.Handler()
		bodies := make([][]byte, fingerprints)
		for i := range bodies {
			bodies[i] = testRequestBody(t, 4, PlanOptions{ForceGroups: i})
		}

		const clients = 64
		var (
			start sync.WaitGroup
			done  sync.WaitGroup
			mu    sync.Mutex
			spans = make([]map[float64]int, fingerprints)
			fails []string
		)
		for i := range spans {
			spans[i] = map[float64]int{}
		}
		start.Add(1)
		done.Add(clients)
		for c := 0; c < clients; c++ {
			go func(fp int) {
				defer done.Done()
				start.Wait()
				w := post(h, "/v1/plan", bodies[fp], "")
				mu.Lock()
				defer mu.Unlock()
				if w.Code != http.StatusOK {
					fails = append(fails, w.Body.String())
					return
				}
				var resp PlanResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					fails = append(fails, err.Error())
					return
				}
				spans[fp][resp.Makespan]++
			}(c % fingerprints)
		}
		start.Done()
		done.Wait()

		if len(fails) > 0 {
			t.Fatalf("%d fingerprints: %d failures, first: %s", fingerprints, len(fails), fails[0])
		}
		for fp, ms := range spans {
			if len(ms) != 1 {
				t.Fatalf("%d fingerprints: responses for fingerprint %d disagree on the makespan: %v", fingerprints, fp, ms)
			}
		}
		m := s.Metrics()
		if m["serve.plans_cold"] != int64(fingerprints) || m["serve.plans_incremental"] != 0 {
			t.Fatalf("%d fingerprints: serve.plans_cold = %d, serve.plans_incremental = %d; want exactly one cold plan per fingerprint",
				fingerprints, m["serve.plans_cold"], m["serve.plans_incremental"])
		}
		if m["serve.coalesced"]+m["serve.cache_hits"] != int64(clients-fingerprints) {
			t.Fatalf("%d fingerprints: coalesced %d + cache hits %d != %d",
				fingerprints, m["serve.coalesced"], m["serve.cache_hits"], clients-fingerprints)
		}
	}
}

// TestPlacementsCarryRequestNames checks that a reply labels its
// placements with the request's own task names: a graph that differs from
// a cached one only in its task names must not be served that graph's
// plan, whose placements name the other graph's tasks.
func TestPlacementsCarryRequestNames(t *testing.T) {
	h := New().Handler()
	m := arch.CHiC().SubsetCores(16)
	g := ode.BuildPABGraph(4000, 600, 8, 2, 2)
	renamed := g.Clone()
	for _, task := range renamed.Tasks() {
		task.Name = "renamed-" + task.Name
	}
	for i, g := range []*graph.Graph{g, renamed, renamed} {
		w := post(h, "/v1/plan", requestBody(t, g, m, PlanOptions{}), "")
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body)
		}
		var resp PlanResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if cached := i == 2; resp.Cached != cached {
			t.Fatalf("request %d: cached = %v, want %v", i, resp.Cached, cached)
		}
		for _, p := range resp.Placements {
			if strings.Contains(p.Task, "renamed-") != (g == renamed) {
				t.Fatalf("request %d: placement names task %q of the other graph", i, p.Task)
			}
		}
	}
}
