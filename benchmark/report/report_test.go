package report

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestOrderStatistics(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("Median odd = %v, want 3", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median even = %v, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median of nothing = %v, want 0", got)
	}
	if got := Quantile([]float64{10, 20, 30, 40, 50}, 0.9); !near(got, 46) {
		t.Errorf("Quantile 0.9 = %v, want 46", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := Quartiles(ten); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("Quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// Python: statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	if q1, q3 := Quartiles([]float64{1, 2}); !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("Quartiles(1, 2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := Spread(ten); !near(got, 1) {
		t.Errorf("Spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := Spread([]float64{1, 2}); got != 0 {
		t.Errorf("Spread of two samples = %v, want 0 (no quartiles)", got)
	}
}

// The reported tail is the highest percentile, capped at p99, with at least
// ten samples beyond it.
func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{1, 5, 19} {
		if q := TailQuantile(n); q != 0.5 {
			t.Errorf("TailQuantile(%d) = %v, want the median", n, q)
		}
	}
	for n, want := range map[int]float64{20: 0.5, 40: 0.75, 100: 0.9, 1000: 0.99, 4000: 0.99} {
		if q := TailQuantile(n); !near(q, want) {
			t.Errorf("TailQuantile(%d) = %v, want %v", n, q, want)
		}
	}
	for _, n := range []int{20, 37, 64, 999, 1000, 5000} {
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = float64(i)
		}
		tail, q := Tail(samples)
		beyond := 0
		for _, s := range samples {
			if s > tail {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%.2f has %d samples beyond it, want >= 10", n, 100*q, beyond)
		}
	}
}

func result(quick bool, latency float64, failed int) *Results {
	e2e := map[string]Stat{}
	for _, m := range EndToEnd {
		e2e[m.Name] = Stat{Value: 100, Unit: m.Unit}
	}
	e2e["latency_p50_ms"] = Stat{Value: latency, Unit: "ms"}
	return &Results{Quick: quick, Workloads: []WorkloadResult{
		{Name: "serve-hot", Correct: failed == 0, Attempted: 1000, Failed: failed, EndToEnd: e2e},
	}}
}

func side(latencies ...float64) []*Results {
	var out []*Results
	for _, l := range latencies {
		out = append(out, result(false, l, 0))
	}
	return out
}

func verdictOf(t *testing.T, rows []Row, metric string) string {
	t.Helper()
	for _, r := range rows {
		if r.Metric.Name == metric {
			return r.Verdict
		}
	}
	t.Fatalf("no row for %s", metric)
	return ""
}

func TestCompareVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b []*Results
		want string
	}{
		{"same", side(10, 10.1, 9.9), side(10.05, 9.95, 10), OK},
		{"within the bound", side(10, 10.1, 9.9), side(10.8, 10.9, 10.7), OK},
		{"worse than the bound", side(10, 10.1, 9.9), side(12, 12.1, 11.9), Regressed},
		{"better", side(10, 10.1, 9.9), side(5, 5.1, 4.9), OK},
		{"spread wider than the bound", side(10, 12, 8), side(10.5, 12.5, 8.5), Unresolved},
		{"wide spread but every run better", side(10, 12, 8), side(5, 6, 4), OK},
		{"single runs", side(10), side(12), Regressed},
	} {
		rows, err := Compare(tc.a, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := verdictOf(t, rows, "latency_p50_ms"); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
		if got := verdictOf(t, rows, "failed_ops_share"); got != OK {
			t.Errorf("%s: failed_ops_share verdict %q, want ok", tc.name, got)
		}
	}

	// ops_per_s is better when higher.
	lower := side(10)
	st := lower[0].Workloads[0].EndToEnd["ops_per_s"]
	st.Value = 80
	lower[0].Workloads[0].EndToEnd["ops_per_s"] = st
	rows, err := Compare(side(10), lower)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, rows, "ops_per_s"); got != Regressed {
		t.Errorf("20%% lower throughput: verdict %q, want regressed", got)
	}

	// Any increase in failed operations regresses.
	rows, err = Compare(side(10), []*Results{result(false, 10, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, rows, "failed_ops_share"); got != Regressed {
		t.Errorf("one failed operation: verdict %q, want regressed", got)
	}
}

func TestCompareRefuses(t *testing.T) {
	if _, err := Compare(side(10), []*Results{result(true, 10, 0)}); err == nil || !strings.Contains(err.Error(), "quick") {
		t.Errorf("quick result accepted: %v", err)
	}
	other := result(false, 10, 0)
	other.Workloads[0].Name = "serve-churn"
	if _, err := Compare(side(10), []*Results{other}); err == nil {
		t.Error("a side without the workload was accepted")
	}
	if _, err := Compare(nil, side(10)); err == nil {
		t.Error("an empty side was accepted")
	}
}

// BENCHMARK.json at the repository root is the contract the driver reads;
// the tables here are what the program reports. They must agree.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []Workload `json:"workloads"`
		EndToEnd  []Metric   `json:"end_to_end"`
		PerLayer  []Metric   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Workloads, Workloads) {
		t.Errorf("workloads differ:\n json %v\n go   %v", doc.Workloads, Workloads)
	}
	if !reflect.DeepEqual(doc.EndToEnd, EndToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n go   %v", doc.EndToEnd, EndToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, PerLayer) {
		t.Errorf("per_layer differs:\n json %v\n go   %v", doc.PerLayer, PerLayer)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]Metric(nil), EndToEnd...), PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, w := range Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
}
