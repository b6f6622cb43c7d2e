package serve

import (
	"encoding/json"
	"fmt"

	"mtask/internal/arch"
	"mtask/internal/core"
	"mtask/internal/graph"
	"mtask/internal/plan"
)

// Wire types of the planning service. A PlanRequest carries the same
// inputs as a plan.Planner.Plan call: the M-task graph (see the JSON
// codec in internal/graph), the machine description (plain JSON of
// arch.Machine) and the request options. The response summarizes the
// mapping — per-layer group structure and per-task placements — plus how
// the request was served (cached / coalesced / cold), so load generators
// and clients can observe the cache and coalescing behaviour end to end.

// PlanOptions is the wire form of the per-request planning knobs.
type PlanOptions struct {
	// Strategy names the mapping strategy: "consecutive" (default),
	// "scattered" or "mixed:<d>".
	Strategy string `json:"strategy,omitempty"`
	// Cores schedules on this many symbolic cores (0 = whole machine).
	Cores int `json:"cores,omitempty"`
	// ForceGroups pins the per-layer group count (0 = search).
	ForceGroups int `json:"force_groups,omitempty"`
	// MinGroups/MaxGroups bound the group-count search (0 = unbounded).
	MinGroups int `json:"min_groups,omitempty"`
	MaxGroups int `json:"max_groups,omitempty"`
}

// PlanRequest is the body of POST /v1/plan and POST /v1/simulate.
type PlanRequest struct {
	Graph   *graph.Graph  `json:"graph"`
	Machine *arch.Machine `json:"machine"`
	Options PlanOptions   `json:"options,omitempty"`
}

// planRequestWire is PlanRequest with the graph in its plain wire form, so
// one json.Unmarshal decodes the whole body: a nested json.Unmarshaler
// would have the graph's bytes scanned three more times (to delimit them,
// to validate them again, to decode them).
type planRequestWire struct {
	Graph   *graph.Wire   `json:"graph"`
	Machine *arch.Machine `json:"machine"`
	Options PlanOptions   `json:"options,omitempty"`
}

// decodePlanRequest decodes a request body. The body must be exactly one
// JSON value: bytes after it are an error.
func decodePlanRequest(body []byte) (*PlanRequest, error) {
	var w planRequestWire
	if err := json.Unmarshal(body, &w); err != nil {
		return nil, err
	}
	req := &PlanRequest{Machine: w.Machine, Options: w.Options}
	if w.Graph != nil {
		var err error
		if req.Graph, err = w.Graph.Build(); err != nil {
			return nil, err
		}
	}
	return req, nil
}

// Validate rejects structurally incomplete requests before they reach the
// planner (the planner re-validates semantics: machine shape, DAG-ness).
func (r *PlanRequest) Validate() error {
	if r.Graph == nil {
		return fmt.Errorf("request has no graph")
	}
	if r.Machine == nil {
		return fmt.Errorf("request has no machine")
	}
	if r.Graph.Len() == 0 {
		return fmt.Errorf("request graph %q has no tasks", r.Graph.Name)
	}
	return nil
}

// planOpts converts the wire options to planner options.
func (r *PlanRequest) planOpts() ([]plan.Option, error) {
	var opts []plan.Option
	if r.Options.Strategy != "" {
		strat, err := core.StrategyByName(r.Options.Strategy)
		if err != nil {
			return nil, err
		}
		opts = append(opts, plan.WithStrategy(strat))
	}
	if r.Options.Cores != 0 {
		opts = append(opts, plan.WithCores(r.Options.Cores))
	}
	if r.Options.ForceGroups != 0 {
		opts = append(opts, plan.WithForceGroups(r.Options.ForceGroups))
	}
	if r.Options.MinGroups != 0 || r.Options.MaxGroups != 0 {
		opts = append(opts, plan.WithGroupBounds(r.Options.MinGroups, r.Options.MaxGroups))
	}
	return opts, nil
}

// strategyName returns the resolved mapping-strategy name, used to key
// the request's fingerprint family. Call only after planOpts succeeded.
func (r *PlanRequest) strategyName() string {
	if r.Options.Strategy == "" {
		return core.Consecutive{}.Name()
	}
	strat, err := core.StrategyByName(r.Options.Strategy)
	if err != nil {
		return r.Options.Strategy
	}
	return strat.Name()
}

// TaskPlacement is one scheduled task's physical placement.
type TaskPlacement struct {
	Task  string   `json:"task"`
	Layer int      `json:"layer"`
	Group int      `json:"group"`
	Cores []string `json:"cores"` // paper-style nid.pid.cid labels
}

// PlanResponse is the body of a successful POST /v1/plan.
type PlanResponse struct {
	Graph   string `json:"graph"`
	Machine string `json:"machine"`

	// Fingerprints identify the request for cache/coalescing debugging.
	GraphFingerprint   string `json:"graph_fingerprint"`
	MachineFingerprint string `json:"machine_fingerprint"`

	Strategy string `json:"strategy"`
	P        int    `json:"cores"`
	Layers   int    `json:"layers"`
	// LayerGroups[i] is the group count of layer i.
	LayerGroups []int `json:"layer_groups"`
	// Makespan is the schedule's predicted symbolic makespan in seconds.
	Makespan float64 `json:"makespan"`

	Placements []TaskPlacement `json:"placements"`

	// How the request was served. Degraded marks a stale fallback
	// mapping of the request's fingerprint family, served because the
	// cold plan exceeded its budget (see the serve package doc).
	// Incremental marks a cold plan that adopted ReusedLayers layer
	// schedules from the planner's family index and searched only
	// PatchedLayers.
	Cached        bool `json:"cached"`
	Coalesced     bool `json:"coalesced"`
	Degraded      bool `json:"degraded,omitempty"`
	Incremental   bool `json:"incremental,omitempty"`
	ReusedLayers  int  `json:"reused_layers,omitempty"`
	PatchedLayers int  `json:"patched_layers,omitempty"`
}

// SimulateResponse is the body of a successful POST /v1/simulate: the
// deterministic cluster simulator's prediction for the request's mapping
// (a cluster.Result without the per-task arrays).
type SimulateResponse struct {
	Graph    string  `json:"graph"`
	Machine  string  `json:"machine"`
	Makespan float64 `json:"makespan"`
	// Aggregates over all tasks (not wall-clock: concurrent
	// contributions accumulate).
	CompTime   float64 `json:"comp_time"`
	CommTime   float64 `json:"comm_time"`
	RedistTime float64 `json:"redist_time"`

	Cached      bool `json:"cached"`
	Coalesced   bool `json:"coalesced"`
	Degraded    bool `json:"degraded,omitempty"`
	Incremental bool `json:"incremental,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code is a stable machine-readable classification:
	// "invalid_argument" (400), "quota_exceeded" (429),
	// "overloaded" (503, load shed — retry after Retry-After),
	// "deadline_exceeded" (504), "canceled" (499) or "internal" (500).
	Code string `json:"code"`
}
