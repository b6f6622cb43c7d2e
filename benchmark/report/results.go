package report

import (
	"encoding/json"
	"fmt"
	"os"
)

// Stat is one reported metric value. For an end-to-end metric Q1, Q3 and N
// describe the samples the value was taken from (operation latencies, or
// per-block throughputs for ops_per_s; the set-ups for setup_s).
type Stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// Env is stamped once per results file.
type Env struct {
	HostCores  int     `json:"host_cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	P          int     `json:"P"`
	Clients    int     `json:"clients"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// WorkloadResult is one workload's untraced (EndToEnd) and traced
// (PerLayer) pass.
type WorkloadResult struct {
	Name      string          `json:"name"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	FirstFail string          `json:"first_failure,omitempty"`
	TailQ     float64         `json:"latency_tail_quantile"`
	EndToEnd  map[string]Stat `json:"end_to_end"`
	PerLayer  map[string]Stat `json:"per_layer"`
}

// FailedOpsShare is failed operations over attempted ones.
func (w *WorkloadResult) FailedOpsShare() float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}

// Results is the results.json document of one benchmark invocation.
type Results struct {
	Env       Env              `json:"env"`
	Quick     bool             `json:"quick"`
	Workloads []WorkloadResult `json:"workloads"`
}

// Load reads a results.json file.
func Load(path string) (*Results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Write stores the document as indented JSON.
func (r *Results) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
