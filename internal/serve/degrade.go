package serve

import (
	"mtask/internal/arch"
	"mtask/internal/core"
	"mtask/internal/graph"
	"mtask/internal/plan"
)

// familyKey identifies a fingerprint family: every planning request for
// the same graph, machine, strategy and core count belongs to one
// family, whatever its scheduler knobs (group bounds, forced groups,
// model tweaks). Any member's mapping is a structurally valid — if
// possibly stale or differently tuned — answer for any other member,
// which is exactly the substitution graceful degradation makes when a
// cold plan blows its budget.
type familyKey struct {
	graph, machine uint64
	strategy       string
	p              int
}

// familyOf computes the request's fingerprint family. strategy is the
// resolved strategy name (the planner default when the request names
// none).
func familyOf(g *graph.Graph, m *arch.Machine, strategy string, cores int) familyKey {
	p := cores
	if p == 0 {
		p = m.TotalCores()
	}
	if strategy == "" {
		strategy = core.Consecutive{}.Name()
	}
	return familyKey{
		graph:    plan.GraphFingerprint(g),
		machine:  plan.MachineFingerprint(m),
		strategy: strategy,
		p:        p,
	}
}

// DefaultFallbackCapacity is the fallback store's size when
// WithDegraded does not set one.
const DefaultFallbackCapacity = 256
