// Command mtaskd serves the planning engine over HTTP: a long-running,
// multi-tenant daemon exposing the paper's combined scheduling and
// mapping as a service, with per-tenant token-bucket quotas, an adaptive
// global admission limit, deadline propagation, graceful degradation, a
// fingerprint-sharded schedule cache and singleflight coalescing of
// concurrent identical requests.
//
// Usage:
//
//	mtaskd -addr :8080
//	mtaskd -addr :8080 -cache 1024 -shards 32 -quota-rate 50 -quota-burst 100
//	mtaskd -addr :8080 -admission -admission-limit 32 -degrade-after 250ms
//	mtaskd -addr :8080 -chaos-seed 42 -chaos-slow-plans 0.1 -chaos-panics 0.01
//	mtaskd -print-request pab | curl -s -d @- localhost:8080/v1/plan
//
// Endpoints: POST /v1/plan, POST /v1/simulate, GET /healthz (liveness),
// GET /readyz (readiness), GET /metricz. On SIGINT/SIGTERM the daemon
// flips readiness to "draining", waits -drain-grace so load balancers
// notice, then drains in-flight requests. See docs/SERVING.md for the
// wire format and the overload runbook.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mtask/internal/arch"
	"mtask/internal/fault"
	"mtask/internal/graph"
	"mtask/internal/obs"
	"mtask/internal/ode"
	"mtask/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cache := flag.Int("cache", 0, "schedule cache capacity in mappings (0 = default)")
	shards := flag.Int("shards", 0, "schedule cache shard count, rounded up to a power of two (0 = default)")
	quotaRate := flag.Float64("quota-rate", 0, "per-tenant admission rate in requests/second (0 = unlimited)")
	quotaBurst := flag.Int("quota-burst", 1, "per-tenant token-bucket burst")
	maxBody := flag.Int64("max-body", 0, "request body limit in bytes (0 = default 64 MiB)")

	admission := flag.Bool("admission", false, "enable the adaptive global concurrency limit")
	admLimit := flag.Int("admission-limit", 0, "admission: initial concurrency limit (0 = default)")
	admMax := flag.Int("admission-max", 0, "admission: upper bound of the adaptive limit (0 = default)")
	admQueue := flag.Int("admission-queue", 0, "admission: bounded wait-queue capacity (0 = default, negative disables queueing)")
	admTarget := flag.Duration("admission-target", 0, "admission: plan-latency target of the AIMD controller (0 = default)")
	degradeAfter := flag.Duration("degrade-after", 0, "serve a stale same-family mapping flagged degraded when a cold plan runs longer than this (0 = disabled)")
	maxDeadline := flag.Duration("max-deadline", 0, "cap on client X-Request-Deadline budgets (0 = default)")
	drainGrace := flag.Duration("drain-grace", 0, "how long readiness reports draining before the listener shuts down")

	chaosSeed := flag.Int64("chaos-seed", 0, "chaos: deterministic injection seed (0 = chaos disabled)")
	chaosSlow := flag.Float64("chaos-slow-plans", 0, "chaos: probability of a slowed cold plan")
	chaosSlowDelay := flag.Duration("chaos-slow-delay", 0, "chaos: injected cold-plan delay (0 = default)")
	chaosLeak := flag.Float64("chaos-leak-leaders", 0, "chaos: probability of a leaked (long-stalled) singleflight leader")
	chaosErrors := flag.Float64("chaos-plan-errors", 0, "chaos: probability of a failed cold plan")
	chaosPanics := flag.Float64("chaos-plan-panics", 0, "chaos: probability of a panicking cold plan (leader crash)")
	chaosHandlerPanics := flag.Float64("chaos-handler-panics", 0, "chaos: probability of a handler panic")
	chaosCacheStalls := flag.Float64("chaos-cache-stalls", 0, "chaos: probability of a stalled cache-shard access")

	printReq := flag.String("print-request", "", "print a sample /v1/plan JSON body for a solver graph (epol|irk|diirk|pab|pabm) and exit")
	reqCores := flag.Int("request-cores", 16, "print-request: cores of the CHiC partition in the sample body")
	reqN := flag.Int("request-n", 4000, "print-request: ODE system size of the sample graph")
	reqSteps := flag.Int("request-steps", 2, "print-request: time steps of the sample graph")
	flag.Parse()

	if *printReq != "" {
		if err := printRequest(os.Stdout, *printReq, *reqN, *reqSteps, *reqCores); err != nil {
			fmt.Fprintf(os.Stderr, "mtaskd: print-request: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var opts []serve.Option
	if *cache > 0 || *shards > 0 {
		opts = append(opts, serve.WithCache(*cache, *shards))
	}
	if *quotaRate > 0 {
		opts = append(opts, serve.WithQuota(*quotaRate, *quotaBurst))
	}
	if *maxBody > 0 {
		opts = append(opts, serve.WithMaxBodyBytes(*maxBody))
	}
	if *admission {
		opts = append(opts, serve.WithAdmission(serve.AdmissionConfig{
			InitialLimit: *admLimit,
			MaxLimit:     *admMax,
			Queue:        *admQueue,
			Target:       *admTarget,
		}))
	}
	if *degradeAfter > 0 {
		opts = append(opts, serve.WithDegraded(*degradeAfter, 0))
	}
	if *maxDeadline > 0 {
		opts = append(opts, serve.WithMaxDeadline(*maxDeadline))
	}
	if *chaosSeed != 0 {
		opts = append(opts, serve.WithChaos(&fault.ServeInjector{
			Seed:            *chaosSeed,
			PSlowPlan:       *chaosSlow,
			SlowPlanDelay:   *chaosSlowDelay,
			PLeakLeader:     *chaosLeak,
			PPlanError:      *chaosErrors,
			PPlanPanic:      *chaosPanics,
			PHandlerPanic:   *chaosHandlerPanics,
			PCacheStall:     *chaosCacheStalls,
			CacheStallDelay: 0,
		}))
		fmt.Fprintf(os.Stderr, "mtaskd: CHAOS MODE seed=%d (slow %g leak %g error %g panic %g handler-panic %g cache-stall %g)\n",
			*chaosSeed, *chaosSlow, *chaosLeak, *chaosErrors, *chaosPanics, *chaosHandlerPanics, *chaosCacheStalls)
	}

	if err := run(*addr, *quotaRate, *quotaBurst, *drainGrace, opts); err != nil {
		fmt.Fprintf(os.Stderr, "mtaskd: %v\n", err)
		os.Exit(1)
	}
}

// run serves until SIGINT/SIGTERM, then flips readiness to draining,
// waits the drain grace so load balancers stop routing here, and drains
// in-flight requests.
func run(addr string, quotaRate float64, quotaBurst int, drainGrace time.Duration, opts []serve.Option) error {
	opts = append(opts, serve.WithRecorder(obs.New(0, obs.WithName("mtaskd"))))
	s := serve.New(opts...)

	srv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "mtaskd: listening on %s (quota %v req/s burst %d)\n",
			addr, quotaRate, quotaBurst)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()

	// Drain: readiness flips first, so /readyz answers 503 "draining"
	// while the listener still accepts (and finishes) requests; only
	// after the grace does the listener itself shut down.
	s.SetDraining(true)
	fmt.Fprintf(os.Stderr, "mtaskd: draining (grace %v)\n", drainGrace)
	if drainGrace > 0 {
		time.Sleep(drainGrace)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	m := s.Metrics()
	fmt.Fprintf(os.Stderr, "mtaskd: served %d requests (shed %d, degraded %d, deadline-exceeded %d)\n",
		m["serve.requests"], m["serve.shed"], m["serve.degraded"], m["serve.deadline_exceeded"])
	return nil
}

// printRequest writes a ready-to-POST /v1/plan body for a solver graph —
// the CI smoke test and the SERVING.md walkthrough use it so the wire
// format never has to be hand-written.
func printRequest(w *os.File, solver string, n, steps, cores int) error {
	g, err := solverGraph(solver, n, steps)
	if err != nil {
		return err
	}
	if cores < 1 {
		return fmt.Errorf("-request-cores %d out of range", cores)
	}
	body, err := json.MarshalIndent(&serve.PlanRequest{
		Graph:   g,
		Machine: arch.CHiC().SubsetCores(cores),
	}, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", body)
	return err
}

// solverGraph builds the named solver's M-task graph at the given scale
// (the fig13/fig15 workloads of the paper's evaluation).
func solverGraph(solver string, n, steps int) (*graph.Graph, error) {
	const eval = 600
	switch solver {
	case "epol":
		return ode.BuildEPOLGraph(n, eval, 8, steps), nil
	case "irk":
		return ode.BuildIRKGraph(n, eval, 4, 2, steps), nil
	case "diirk":
		return ode.BuildDIIRKGraph(n, eval, 4, 2, steps), nil
	case "pab":
		return ode.BuildPABGraph(n, eval, 8, 0, steps), nil
	case "pabm":
		return ode.BuildPABGraph(n, eval, 8, 2, steps), nil
	}
	return nil, fmt.Errorf("unknown solver %q (want epol|irk|diirk|pab|pabm)", solver)
}
