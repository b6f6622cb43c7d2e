package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mtask/benchmark/report"
)

func bodiesOf(t *testing.T, seed int64, churn bool) []serveBody {
	t.Helper()
	bodies, err := generateBodies(rand.New(rand.NewSource(seed)), quickSizes, churn)
	if err != nil {
		t.Fatal(err)
	}
	return bodies
}

// The same seed gives byte-identical request bodies; another seed does not.
func TestServeBodiesDeterministic(t *testing.T) {
	for _, churn := range []bool{false, true} {
		a, b, c := bodiesOf(t, 7, churn), bodiesOf(t, 7, churn), bodiesOf(t, 8, churn)
		differs := false
		for i := range a {
			if !bytes.Equal(a[i].json, b[i].json) || a[i].class != b[i].class {
				t.Fatalf("churn=%v: body %d differs between two draws of one seed", churn, i)
			}
			differs = differs || !bytes.Equal(a[i].json, c[i].json)
		}
		if !differs {
			t.Errorf("churn=%v: seeds 7 and 8 drew the same bodies", churn)
		}
		seen := map[string]bool{}
		for i, body := range a {
			if seen[string(body.json)] {
				t.Errorf("churn=%v: body %d repeats an earlier one", churn, i)
			}
			seen[string(body.json)] = true
		}
	}
	extends := 0
	for _, body := range bodiesOf(t, 7, true) {
		if body.class == classExtend {
			extends++
		}
	}
	if extends == 0 {
		t.Error("the churn block has no extend body")
	}
}

func traceSignature(seed int64) []string {
	var sig []string
	for _, j := range generateJobs(rand.New(rand.NewSource(seed)), quickSizes) {
		data, _ := json.Marshal(j.Graph)
		sig = append(sig, j.Name, j.Arrival.String(), string(data))
	}
	return sig
}

func TestJobTraceDeterministic(t *testing.T) {
	if !reflect.DeepEqual(traceSignature(3), traceSignature(3)) {
		t.Error("one seed drew two different job traces")
	}
	if reflect.DeepEqual(traceSignature(3), traceSignature(4)) {
		t.Error("seeds 3 and 4 drew the same job trace")
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSpanArithmetic(t *testing.T) {
	spans := []span{
		{Name: "op", Start: ms(0), End: ms(100), Parent: noSpan},      // 0
		{Name: "plan.cold", Start: ms(0), End: ms(30), Parent: 0},     // 1
		{Name: "runtime.exec", Start: ms(35), End: ms(95), Parent: 0}, // 2
		{Name: "plan.cold", Start: ms(90), End: ms(120), Parent: 0},   // 3: overlaps 2, overruns the parent
		{Name: "op", Start: ms(200), End: ms(240), Parent: noSpan},    // 4
		{Name: "plan.cold", Start: ms(200), End: ms(210), Parent: 4},  // 5
	}
	self := selfTimes(spans)
	// op 0: children cover [0,30] and [35,100] once = 95 of 100.
	if self[0] != ms(5) {
		t.Errorf("self time of op 0 = %v, want 5ms", self[0])
	}
	if self[4] != ms(30) {
		t.Errorf("self time of op 4 = %v, want 30ms", self[4])
	}
	for i, s := range self {
		if s < 0 || s > spans[i].End-spans[i].Start {
			t.Errorf("span %d: self time %v outside [0, duration]", i, s)
		}
	}
	// Stage times are per parent: op 0 planned twice (30+30), op 4 once (10);
	// roots stand alone.
	got := spanMillis(spans)
	if want := []float64{60, 10}; !reflect.DeepEqual(got["plan.cold"], want) {
		t.Errorf("plan.cold per op = %v, want %v", got["plan.cold"], want)
	}
	if want := []float64{100, 40}; !reflect.DeepEqual(got["op"], want) {
		t.Errorf("op = %v, want %v", got["op"], want)
	}
	if cov := stageCoverage(spans); cov != 1-35.0/140 {
		t.Errorf("stage coverage = %v, want %v", cov, 1-35.0/140)
	}
}

// Self times derived from standalone replays never go negative, and the
// stages never sum to more than their parent.
func TestDerivedSelfTimes(t *testing.T) {
	v := map[string]float64{
		"graph.validate_ms": 1, "graph.contract_ms": 2, "graph.layers_ms": 0.5,
		"core.schedule_ms": 10, "core.map_ms": 1, "plan.cold_ms": 14,
	}
	deriveSelf(v)
	if v["core.search_ms"] != 6.5 || v["plan.self_ms"] != 3 {
		t.Errorf("search %v self %v, want 6.5 and 3", v["core.search_ms"], v["plan.self_ms"])
	}
	// Replays slower than the stage they explain: clamp, do not go negative.
	v = map[string]float64{"core.schedule_ms": 10, "core.map_ms": 1, "plan.cold_ms": 9, "graph.validate_ms": 11}
	deriveSelf(v)
	if v["core.search_ms"] != 0 || v["plan.self_ms"] != 0 {
		t.Errorf("search %v self %v, want both clamped to 0", v["core.search_ms"], v["plan.self_ms"])
	}
	v = map[string]float64{
		"serve.handler_ms": 3, "graph.decode_ms": 1, "plan.hit_ms": 0.1, "plan.cold_ms": 0.5, "plan.cache_hit_ratio": 1,
	}
	deriveSelf(v)
	if got := v["serve.self_ms"]; got < 1.9-1e-9 || got > 1.9+1e-9 {
		t.Errorf("serve.self_ms = %v, want 1.9", got)
	}
	if sum := v["graph.decode_ms"] + v["plan.hit_ms"] + v["serve.self_ms"]; sum > v["serve.handler_ms"]+1e-9 {
		t.Errorf("stages sum to %v, more than the handler's %v", sum, v["serve.handler_ms"])
	}
}

// The -quick smoke: every workload, both passes, reduced sizes. Its output
// is stamped quick, carries every metric, and compare refuses it.
func TestQuickSmoke(t *testing.T) {
	dir := t.TempDir()
	if err := run("", 1, 10, 0, dir, true); err != nil {
		t.Fatal(err)
	}
	res, err := report.Load(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quick {
		t.Error("results.json of a -quick run is not stamped quick")
	}
	if len(res.Workloads) != len(report.Workloads) {
		t.Fatalf("%d workloads in results.json, want %d", len(res.Workloads), len(report.Workloads))
	}
	for _, w := range res.Workloads {
		if !w.Correct || w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d (%s)", w.Name, w.Correct, w.Attempted, w.Failed, w.FirstFail)
		}
		for _, m := range report.EndToEnd {
			if st, ok := w.EndToEnd[m.Name]; !ok || st.Value <= 0 || st.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", w.Name, m.Name, st)
			}
		}
		for _, m := range report.PerLayer {
			if st, ok := w.PerLayer[m.Name]; !ok || st.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s = %+v", w.Name, m.Name, st)
			}
		}
	}
	if _, err := report.Compare([]*report.Results{res}, []*report.Results{res}); err == nil || !strings.Contains(err.Error(), "quick") {
		t.Errorf("compare accepted a quick result: %v", err)
	}
	if _, err := report.Load(filepath.Join(dir, "trace.json")); err != nil {
		t.Errorf("trace.json is not JSON: %v", err)
	}
}

// Every sample and span a workload records must name a per-layer metric, or
// the value would be dropped silently.
func TestObservedNamesAreMetrics(t *testing.T) {
	known := map[string]bool{"op_ms": true, "replay_ms": true, "dynsched.wait_ms": true, "dynsched.job_ms": true}
	for _, m := range report.PerLayer {
		known[m.Name] = true
	}
	ctx := context.Background()
	for i, wl := range report.Workloads {
		w, err := newWorkload(wl.Name, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.setup(ctx, rand.New(rand.NewSource(int64(i))), quickSizes); err != nil {
			t.Fatal(err)
		}
		ps, err := measure(ctx, w, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		for name := range ps.probe.samples {
			if !known[name] {
				t.Errorf("%s observes %q, which is no per-layer metric", wl.Name, name)
			}
		}
		for name := range spanMillis(ps.probe.spans) {
			if !known[name+"_ms"] {
				t.Errorf("%s records span %q, which feeds no per-layer metric", wl.Name, name)
			}
		}
	}
}

// The oracles are live: one corrupted reference value fails the operation.
func TestCorruptedReferenceFails(t *testing.T) {
	ctx := context.Background()
	rng := func() *rand.Rand { return rand.New(rand.NewSource(1)) }

	lib := &libWavefront{}
	if err := lib.setup(ctx, rng(), quickSizes); err != nil {
		t.Fatal(err)
	}
	lib.want[len(lib.want)/2] += 1e-9
	if res, err := lib.block(ctx, nil, 0); err != nil || res.failed != 1 {
		t.Errorf("lib-wavefront with a corrupted reference: failed=%d err=%v, want 1 failure", res.failed, err)
	}

	layered := &odeLayered{}
	if err := layered.setup(ctx, rng(), quickSizes); err != nil {
		t.Fatal(err)
	}
	for _, vec := range layered.solvers[2].want {
		vec[0] += 1e-9
		break
	}
	if res, err := layered.block(ctx, nil, 0); err != nil || res.failed != 1 {
		t.Errorf("ode-layered with a corrupted reference: failed=%d err=%v, want 1 failure", res.failed, err)
	}

	hot := &serveLoad{clients: 2}
	if err := hot.setup(ctx, rng(), quickSizes); err != nil {
		t.Fatal(err)
	}
	hot.bodies[0].ref.makespan *= 1.0000001
	res, err := hot.block(ctx, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, i := range hot.order {
		if i == 0 {
			want++
		}
	}
	if res.failed != want || want == 0 {
		t.Errorf("serve-hot with one corrupted reference plan: %d failed, want %d (every request of that body)", res.failed, want)
	}
	hot.bodies[1].class = classCold // the reply will say cached
	if res, _ := hot.block(ctx, nil, 0); res.failed <= want {
		t.Errorf("serve-hot with a wrong expected flag: %d failed, want more than %d", res.failed, want)
	}
}

func TestContractLine(t *testing.T) {
	res := &report.WorkloadResult{Correct: true, Attempted: 7, Failed: 0}
	line, err := contractLine(res, map[string]report.Stat{"setup_s": {Value: 0.5, Unit: "s", Q1: 1, Q3: 2, N: 3}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":7,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}`
	if string(line) != want {
		t.Errorf("contract line\n got %s\nwant %s", line, want)
	}
}
