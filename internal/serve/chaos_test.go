package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mtask/internal/fault"
)

// TestChaosInvariants is the service-level chaos harness: a server with a
// seeded fault injector (slow, leaked, failing and panicking plans,
// handler panics, cache stalls), admission control and degraded serving
// is driven over a real socket by concurrent clients that propagate a
// deadline, and the overload invariants must hold:
//
//  1. no request outlives its propagated deadline plus hangGrace;
//  2. the shed rate is bounded: at most 90% shed, at least one 200;
//  3. coalescing never serves a poisoned plan: every 200 for one
//     fingerprint reports the same makespan, no 200 body is malformed,
//     and only whitelisted status codes appear;
//  4. the server degrades instead of dying: /healthz never fails.
//
// Faults are drawn from a fixed seed, so a failing run reproduces.
func TestChaosInvariants(t *testing.T) {
	const (
		clients  = 256
		requests = 8
		graphs   = 4
		deadline = 2 * time.Second
		// hangGrace covers what the context cannot reach: scheduling
		// jitter, response encoding and the deliberately uncancelable
		// injected cache stalls.
		hangGrace = 2 * time.Second
	)
	s := New(
		WithChaos(&fault.ServeInjector{
			Seed:            42,
			PSlowPlan:       0.20,
			SlowPlanDelay:   30 * time.Millisecond,
			PLeakLeader:     0.02,
			LeakDelay:       300 * time.Millisecond,
			PPlanError:      0.05,
			PPlanPanic:      0.02,
			PHandlerPanic:   0.01,
			PCacheStall:     0.05,
			CacheStallDelay: 2 * time.Millisecond,
		}),
		WithAdmission(AdmissionConfig{}),
		WithDegraded(50*time.Millisecond, 0),
	)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	tr := srv.Client().Transport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = clients
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	bodies := make([][]byte, graphs)
	for i := range bodies {
		bodies[i] = testRequestBody(t, i+1, PlanOptions{})
	}

	// Liveness poller: /healthz must answer 200 throughout. /readyz may
	// (and under this fire should) report degraded, so it is not asserted.
	pollStop := make(chan struct{})
	pollDone := make(chan int)
	go func() {
		liveFails := 0
		for {
			select {
			case <-pollStop:
				pollDone <- liveFails
				return
			case <-time.After(50 * time.Millisecond):
			}
			resp, err := client.Get(srv.URL + "/healthz")
			if err != nil {
				liveFails++
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				liveFails++
			}
		}
	}()

	type result struct {
		body     int
		status   int // -1: malformed 200 body, 0: no response
		makespan float64
		hung     bool
	}
	send := func(bi int) result {
		// The client-side cutoff is the hang detector: a server honoring
		// propagated deadlines answers (with 504 at worst) well inside it.
		ctx, cancel := context.WithTimeout(context.Background(), deadline+hangGrace)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, "POST", srv.URL+"/v1/plan", bytes.NewReader(bodies[bi]))
		if err != nil {
			t.Error(err)
			return result{body: bi}
		}
		req.Header.Set(DeadlineHeader, deadline.String())
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return result{body: bi, hung: ctx.Err() != nil}
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		r := result{body: bi, status: resp.StatusCode, hung: err != nil || time.Since(t0) > deadline+hangGrace}
		if r.status == http.StatusOK {
			var pr PlanResponse
			if err := json.Unmarshal(data, &pr); err != nil {
				r.status = -1
			}
			r.makespan = pr.Makespan
		}
		return r
	}

	results := make([][]result, clients)
	var startGate, wg sync.WaitGroup
	startGate.Add(1)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			startGate.Wait()
			for r := 0; r < requests; r++ {
				results[c] = append(results[c], send((c+r)%graphs))
			}
		}(c)
	}
	startGate.Done()
	wg.Wait()
	close(pollStop)
	liveFails := <-pollDone

	allowed := map[int]bool{
		http.StatusOK: true, http.StatusServiceUnavailable: true, http.StatusGatewayTimeout: true,
		499: true, http.StatusTooManyRequests: true, http.StatusInternalServerError: true,
	}
	counts := map[int]int{}
	spans := make([]map[float64]int, graphs)
	for i := range spans {
		spans[i] = map[float64]int{}
	}
	hangs := 0
	for _, rs := range results {
		for _, r := range rs {
			counts[r.status]++
			if r.hung {
				hangs++
			}
			if r.status == http.StatusOK {
				spans[r.body][r.makespan]++
			}
		}
	}
	total := clients * requests
	t.Logf("%d requests: status counts %v, %d liveness failures", total, counts, liveFails)

	if hangs > 0 {
		t.Errorf("%d requests outlived their propagated deadline (+%v grace)", hangs, hangGrace)
	}
	if counts[http.StatusOK] == 0 {
		t.Error("no request was served at all: shed rate unbounded")
	}
	if shed := counts[http.StatusServiceUnavailable]; shed*10 > total*9 {
		t.Errorf("shed %d of %d requests, above the 90%% bound", shed, total)
	}
	for bi, ms := range spans {
		if len(ms) > 1 {
			t.Errorf("fingerprint %d served inconsistent plans (coalescing adopted a poisoned flight): makespans %v", bi, ms)
		}
	}
	if counts[-1] > 0 {
		t.Errorf("%d malformed 200 bodies", counts[-1])
	}
	for status, n := range counts {
		if status != -1 && !allowed[status] {
			t.Errorf("%d responses with status %d, outside the allowed set", n, status)
		}
	}
	if liveFails > 0 {
		t.Errorf("/healthz failed %d times: the server died instead of degrading", liveFails)
	}
}
