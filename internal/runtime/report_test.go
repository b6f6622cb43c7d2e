package runtime

import (
	"context"
	"strings"
	"testing"
	"time"

	"mtask/internal/graph"
)

// TestReportStringZeroWall is the regression test for the core-time
// line of a zero-duration report: with spans present but Wall == 0
// (empty schedule, or String called before Wall is stamped) the line
// must render "n/a" utilization instead of dividing by zero.
func TestReportStringZeroWall(t *testing.T) {
	r := NewReport()
	r.begin(2)
	r.Spans = []TaskSpan{{Name: "t", Cores: 2, End: time.Millisecond}}
	r.busy = 2 * time.Millisecond

	out := r.String()
	if !strings.Contains(out, "core-time:") {
		t.Fatalf("zero-wall report omits the core-time line:\n%s", out)
	}
	if !strings.Contains(out, "n/a") {
		t.Fatalf("zero-wall report should render n/a utilization:\n%s", out)
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("zero-wall report rendered a non-finite utilization:\n%s", out)
	}

	// With a wall time the percentage returns.
	r.mu.Lock()
	r.Wall = 2 * time.Millisecond
	r.mu.Unlock()
	out = r.String()
	if !strings.Contains(out, "% utilized") {
		t.Fatalf("timed report lost the utilization percentage:\n%s", out)
	}
}

// TestLeanReportStringCountsFaultHistory: a lean report keeps entries only
// for tasks with a fault history, so its header must not call them "tasks".
func TestLeanReportStringCountsFaultHistory(t *testing.T) {
	w, _ := NewWorld(2)
	body := func(*graph.Task) TaskFunc { return func(*TaskCtx) error { return nil } }
	rep, err := ExecuteCtx(context.Background(), w, gridSchedule(2, 3, 1), body, WithoutTimeline())
	if err != nil || !strings.Contains(rep.String(), "0 tasks with fault history,") {
		t.Fatalf("err %v; a clean lean run of 6 tasks must report 0 tasks with fault history:\n%s", err, rep)
	}
}
