package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"mtask/benchmark/report"
)

// span is one timed call the benchmark made into a layer. Start and End
// are offsets from the probe's epoch; Parent indexes the span that caused
// it (noSpan for a root); Rep is the block the span belongs to.
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
	Rep        int
}

const noSpan = -1

// probe collects the traced pass of one workload: spans around the
// benchmark's own calls into each layer, and named per-operation samples
// (counts, ratios) read from the layers' public counters. A nil *probe is
// the untraced pass: every method is a no-op, so workload code is written
// once.
type probe struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	samples map[string][]float64
}

func newProbe() *probe {
	return &probe{epoch: time.Now(), samples: make(map[string][]float64)}
}

// begin opens a span and returns its id for end and for children.
func (p *probe) begin(name string, parent, rep int) int {
	if p == nil {
		return noSpan
	}
	now := time.Since(p.epoch)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.spans = append(p.spans, span{Name: name, Start: now, End: now, Parent: parent, Rep: rep})
	return len(p.spans) - 1
}

func (p *probe) end(id int) {
	if p == nil {
		return
	}
	now := time.Since(p.epoch)
	p.mu.Lock()
	p.spans[id].End = now
	p.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (a job's wait
// and run, taken from its JobResult), as absolute times.
func (p *probe) add(name string, parent, rep int, start, end time.Time) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.spans = append(p.spans, span{Name: name, Start: start.Sub(p.epoch), End: end.Sub(p.epoch), Parent: parent, Rep: rep})
	p.mu.Unlock()
}

// observe records one sample of a named per-layer metric.
func (p *probe) observe(name string, v float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.samples[name] = append(p.samples[name], v)
	p.mu.Unlock()
}

// spanMillis returns, per span name, the samples behind the metric
// "<name>_ms": for each parent span the total time of its children of that
// name (one solver suite plans four times; the suite's plan time is their
// sum), and each root span alone.
func spanMillis(spans []span) map[string][]float64 {
	type key struct {
		name   string
		parent int
	}
	sums := make(map[key]time.Duration)
	var order []key
	for i, s := range spans {
		k := key{s.Name, s.Parent}
		if s.Parent == noSpan {
			k.parent = -2 - i // a root is its own group
		}
		if _, seen := sums[k]; !seen {
			order = append(order, k)
		}
		sums[k] += s.End - s.Start
	}
	out := make(map[string][]float64)
	for _, k := range order {
		out[k.name] = append(out[k.name], millis(sums[k]))
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (children clipped to the parent,
// overlapping children counted once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// stageCoverage is the share of the root "op" spans' time that their child
// spans account for.
func stageCoverage(spans []span) float64 {
	self := selfTimes(spans)
	var total, own time.Duration
	for i, s := range spans {
		if s.Parent == noSpan && s.Name == "op" {
			total += s.End - s.Start
			own += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(own)/float64(total)
}

// chromeEvent is one complete event of the Chrome trace-event format
// (chrome://tracing, ui.perfetto.dev).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeEvents renders a workload's spans as one process row; every block
// (repetition) is a thread row, so concurrent requests of a block stack.
func chromeEvents(pid int, workload string, spans []span) []chromeEvent {
	events := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": workload},
	}}
	for i, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: pid, Tid: s.Rep,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{"id": i, "parent": s.Parent, "rep": s.Rep},
		})
	}
	return events
}

func writeChrome(path string, events []chromeEvent) error {
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianOf is report.Median over durations, in milliseconds.
func medianOf(ds []time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = millis(d)
	}
	return report.Median(v)
}
