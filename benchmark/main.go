// Command benchmark is the repository's benchmark: five named workloads
// over the whole pipeline (graph in, plan, dispatch, collectives, verified
// result out; the planning service; the machine-level job allocator), each
// checked against an independent reference on every operation.
//
// The benchmark contract runs one workload and one pass per invocation:
//
//	bash benchmark/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// prints the end-to-end metrics (--trace 1: the per-layer metrics of a traced
// pass) and, as the last line of standard output, one JSON object with
// correct, attempted, failed and metrics. Without --workload it runs every
// workload with both passes and, given -out, writes results.json (the input
// of ./compare) and trace.json (the spans, Chrome trace-event format).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	stdruntime "runtime"

	"mtask/benchmark/report"
)

// commit is stamped by run.sh (-ldflags -X) when the checkout is a git
// repository.
var commit = "unknown"

func main() {
	workload := flag.String("workload", "", "run one workload (default: all five, both passes)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 15, "how long each pass measures")
	trace := flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics of a traced pass")
	out := flag.String("out", "", "directory for results.json and trace.json")
	quick := flag.Bool("quick", false, "smoke run: reduced sizes, one block per pass; stamped quick and refused by compare")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace, *out, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int, out string, quick bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	sz := fullSizes
	if quick {
		sz, seconds = quickSizes, 0
	}
	results := &report.Results{
		Quick: quick,
		Env: report.Env{
			HostCores: stdruntime.NumCPU(), GOMAXPROCS: stdruntime.GOMAXPROCS(0),
			P: ranks, Clients: clientCount(),
			GoVersion: stdruntime.Version(), Commit: commit,
			Seed: seed, Seconds: seconds,
		},
	}
	fmt.Printf("host_cores %d  gomaxprocs %d  P %d  clients %d  %s  commit %s  seed %d  seconds %g\n",
		results.Env.HostCores, results.Env.GOMAXPROCS, results.Env.P, results.Env.Clients,
		results.Env.GoVersion, results.Env.Commit, seed, seconds)

	ctx := context.Background()
	if workload != "" {
		res, _, err := runWorkload(ctx, workload, seed, sz, seconds, trace == 0, trace == 1)
		if err != nil {
			return err
		}
		metrics := res.EndToEnd
		if trace == 1 {
			metrics = res.PerLayer
		}
		printWorkload(res)
		line, err := contractLine(res, metrics)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}

	var events []chromeEvent
	failed := false
	for i, w := range report.Workloads {
		res, spans, err := runWorkload(ctx, w.Name, seed, sz, seconds, true, true)
		if err != nil {
			return err
		}
		printWorkload(res)
		results.Workloads = append(results.Workloads, *res)
		events = append(events, chromeEvents(i+1, w.Name, spans)...)
		failed = failed || !res.Correct
	}
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		if err := results.Write(filepath.Join(out, "results.json")); err != nil {
			return err
		}
		if err := writeChrome(filepath.Join(out, "trace.json"), events); err != nil {
			return err
		}
		fmt.Printf("wrote %s and %s\n", filepath.Join(out, "results.json"), filepath.Join(out, "trace.json"))
	}
	if failed {
		return fmt.Errorf("operations failed their oracle")
	}
	return nil
}

// printWorkload prints every metric of the passes that ran, by name, with
// its unit.
func printWorkload(res *report.WorkloadResult) {
	fmt.Printf("\n%s: %d operations, %d failed (failed_ops_share %g)\n",
		res.Name, res.Attempted, res.Failed, res.FailedOpsShare())
	if res.FirstFail != "" {
		fmt.Printf("  first failure: %s\n", res.FirstFail)
	}
	if res.EndToEnd != nil {
		for _, m := range report.EndToEnd {
			st := res.EndToEnd[m.Name]
			note := ""
			if m.Name == "latency_tail_ms" {
				note = fmt.Sprintf("  p%.4g", 100*res.TailQ)
			}
			fmt.Printf("  %-32s %14.6g %-6s [q1 %.6g, q3 %.6g, n %d]%s\n", m.Name, st.Value, st.Unit, st.Q1, st.Q3, st.N, note)
		}
	}
	if res.PerLayer != nil {
		for _, m := range report.PerLayer {
			if st := res.PerLayer[m.Name]; st.Value != 0 {
				fmt.Printf("  %-32s %14.6g %s\n", m.Name, st.Value, st.Unit)
			}
		}
	}
}

// contractLine renders the benchmark contract's result, the last line of
// standard output.
func contractLine(res *report.WorkloadResult, metrics map[string]report.Stat) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value, len(metrics))}
	for name, st := range metrics {
		line.Metrics[name] = value{st.Value, st.Unit}
	}
	return json.Marshal(line)
}
