package runtime

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"mtask/internal/fault"
	"mtask/internal/obs"
)

// TestExecuteCtxTrace runs the imbalanced workload under a recorder and
// checks the acceptance surface of the tracing layer: task spans,
// barrier-wait spans and collective counter samples for every rank,
// layer-done instants on the control track, and a coherent Metrics
// snapshot.
func TestExecuteCtxTrace(t *testing.T) {
	const p, layers = 4, 3
	sched := ImbalancedWorkload(p, layers)
	body := ImbalancedBody(2*time.Millisecond, 100*time.Microsecond)
	w, _ := NewWorld(p)
	rec := obs.New(p, obs.WithName("trace-test"))
	rep, err := ExecuteCtx(context.Background(), w, sched, body, WithRecorder(rec))
	if err != nil {
		t.Fatalf("%v\n%s", err, rep)
	}

	for rank := 0; rank < p; rank++ {
		var tasks, barriers, counters int
		for _, ev := range rec.RankEvents(rank) {
			switch {
			case ev.Kind == obs.KindSpan && ev.Cat == "task":
				tasks++
				if ev.End < ev.Start {
					t.Errorf("rank %d: span %q ends before it starts", rank, ev.Name)
				}
				if ev.Layer < 0 || ev.Group < 0 {
					t.Errorf("rank %d: task span %q missing layer/group", rank, ev.Name)
				}
			case ev.Kind == obs.KindSpan && ev.Cat == "barrier":
				barriers++
			case ev.Kind == obs.KindCounter:
				counters++
			}
		}
		// One group of the pair runs the slow task, the other the fast one:
		// every rank executes exactly one task per layer.
		if tasks != layers {
			t.Errorf("rank %d: %d task spans, want %d", rank, tasks, layers)
		}
		// ImbalancedBody issues one group barrier per task.
		if barriers != layers {
			t.Errorf("rank %d: %d barrier-wait spans, want %d", rank, barriers, layers)
		}
		if counters == 0 {
			t.Errorf("rank %d: no collective counter samples", rank)
		}
	}

	var layerDone int
	for _, ev := range rec.RankEvents(obs.ControlRank) {
		if ev.Kind == obs.KindInstant && ev.Name == "layer-done" {
			layerDone++
		}
	}
	if layerDone != layers {
		t.Errorf("%d layer-done instants, want %d", layerDone, layers)
	}
	if rec.Drops() != 0 {
		t.Errorf("trace dropped %d events", rec.Drops())
	}
	// Layered runs report the dispatch metrics too: every task is launched
	// by its leader's own chain step (a leader waits only at the layer
	// barrier, which is not a park), and the launch backlog peaks at the
	// two tasks of a layer.
	m := rec.Metrics()
	if m["exec.wf.chain_launches"] != 2*layers || m["exec.wf.peak_ready"] != 2 {
		t.Errorf("exec.wf.chain_launches = %d, exec.wf.peak_ready = %d; want %d and 2",
			m["exec.wf.chain_launches"], m["exec.wf.peak_ready"], 2*layers)
	}
	if out := rec.Gantt(40); !strings.Contains(out, "slow[0]@") || !strings.Contains(out, "#") {
		t.Errorf("gantt missing task rows:\n%s", out)
	}
}

// TestExecuteCtxTraceWavefront runs the imbalanced workload in layered
// and in wavefront mode, each under its own recorder, exports both as one
// Chrome trace and checks the decoded file: one process per mode, and on
// every rank track of each, task spans, barrier-wait spans and collective
// counter samples.
func TestExecuteCtxTraceWavefront(t *testing.T) {
	const p, layers = 4, 3
	sched := ImbalancedWorkload(p, layers)
	body := ImbalancedBody(time.Millisecond, 100*time.Microsecond)
	var recs []*obs.Recorder
	for _, mode := range execModes {
		w, _ := NewWorld(p)
		rec := obs.New(p, obs.WithName(mode.name))
		rep, err := ExecuteCtx(context.Background(), w, sched, body, append(mode.opts, WithRecorder(rec))...)
		if err != nil {
			t.Fatalf("%s: %v\n%s", mode.name, err, rep)
		}
		recs = append(recs, rec)
	}
	var buf bytes.Buffer
	if err := obs.WriteChrome(&buf, recs...); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
			Pid int    `json:"pid"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace does not decode: %v", err)
	}
	type track struct{ pid, tid int }
	tasks, barriers, counters := map[track]int{}, map[track]int{}, map[track]int{}
	for _, ev := range trace.TraceEvents {
		tr := track{ev.Pid, ev.Tid}
		switch {
		case ev.Ph == "X" && ev.Cat == "task":
			tasks[tr]++
		case ev.Ph == "X" && ev.Cat == "barrier":
			barriers[tr]++
		case ev.Ph == "C":
			counters[tr]++
		}
	}
	for pi, mode := range execModes {
		for rank := 0; rank < p; rank++ {
			tr := track{pi + 1, rank + 1} // pid = recorder index + 1, tid = rank + 1
			if tasks[tr] != layers || barriers[tr] != layers || counters[tr] == 0 {
				t.Errorf("%s rank %d: %d task / %d barrier spans, %d counter samples; want %d, %d and > 0",
					mode.name, rank, tasks[tr], barriers[tr], counters[tr], layers, layers)
			}
		}
	}
}

// TestTraceRetryInstants checks fault handling leaves retry/fail events
// and registry counters on the control track.
func TestTraceRetryInstants(t *testing.T) {
	const p = 2
	sched := ImbalancedWorkload(p, 1)
	body := ImbalancedBody(0, 0)
	w, _ := NewWorld(p)
	rec := obs.New(p)
	inj := &fault.Injector{Script: []fault.Script{{Task: "slow[0]", Attempt: 1, Rank: 0, Kind: fault.Error}}}
	rep, err := ExecuteCtx(context.Background(), w, sched, body,
		WithRecorder(rec), WithInjector(inj), WithPolicy(fault.Policy{MaxRetries: 2}))
	if err != nil {
		t.Fatalf("%v\n%s", err, rep)
	}
	var retries, fails int
	for _, ev := range rec.RankEvents(obs.ControlRank) {
		if strings.HasPrefix(ev.Name, "retry:") {
			retries++
		}
		if strings.HasPrefix(ev.Name, "fail:") {
			fails++
		}
	}
	if retries == 0 || fails == 0 {
		t.Errorf("retries=%d fails=%d instants, want both > 0", retries, fails)
	}
	if rec.Metrics()["fault.retries"] == 0 {
		t.Error("fault.retries counter not incremented")
	}
}
