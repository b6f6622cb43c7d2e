package core

import (
	"context"
	"fmt"

	"mtask/internal/arch"
)

// Strategy defines a mapping strategy: an ordering of the physical cores
// of a machine (Section 3.4). Group Gi of a layer is mapped onto the
// contiguous slice of the sequence following the groups G1..Gi-1, so the
// sequence alone determines the mapping function F_W.
type Strategy interface {
	// Name returns the strategy name for reports.
	Name() string
	// Sequence returns the machine's physical cores in mapping order.
	// The sequence contains every core exactly once.
	Sequence(m *arch.Machine) []arch.CoreID
}

// Consecutive orders cores so that cores of the same node are adjacent:
// 1.1.1, 1.1.2, ..., 1.p.c, 2.1.1, ... Group-internal communication stays
// inside nodes whenever groups are at most a node wide.
type Consecutive struct{}

// Name implements Strategy.
func (Consecutive) Name() string { return "consecutive" }

// Sequence implements Strategy.
func (Consecutive) Sequence(m *arch.Machine) []arch.CoreID { return m.AllCores() }

// Scattered orders cores so that corresponding cores of different nodes are
// adjacent: 1.1.1, 2.1.1, ..., n.1.1, 1.1.2, ... Group-internal
// communication crosses nodes; orthogonal communication between
// corresponding cores of concurrent groups stays inside nodes.
type Scattered struct{}

// Name implements Strategy.
func (Scattered) Name() string { return "scattered" }

// Sequence implements Strategy.
func (Scattered) Sequence(m *arch.Machine) []arch.CoreID {
	cores := make([]arch.CoreID, 0, m.TotalCores())
	for p := 0; p < m.ProcsPerNode; p++ {
		for c := 0; c < m.CoresPerProc; c++ {
			for n := 0; n < m.Nodes; n++ {
				cores = append(cores, arch.CoreID{Node: n, Proc: p, Core: c})
			}
		}
	}
	return cores
}

// Mixed orders cores in blocks of D consecutive cores per node: the first D
// cores of node 1, the first D cores of node 2, ..., then the next D cores
// of node 1, and so on. D=1 degenerates to Scattered; D = cores per node
// degenerates to Consecutive.
type Mixed struct{ D int }

// Name implements Strategy.
func (s Mixed) Name() string { return fmt.Sprintf("mixed(d=%d)", s.D) }

// Sequence implements Strategy.
func (s Mixed) Sequence(m *arch.Machine) []arch.CoreID {
	d := s.D
	cpn := m.CoresPerNode()
	if d < 1 {
		d = 1
	}
	if d > cpn {
		d = cpn
	}
	cores := make([]arch.CoreID, 0, m.TotalCores())
	// nodeCores[n] is the canonical core order within node n.
	for off := 0; off < cpn; off += d {
		end := off + d
		if end > cpn {
			end = cpn
		}
		for n := 0; n < m.Nodes; n++ {
			for k := off; k < end; k++ {
				cores = append(cores, arch.CoreID{
					Node: n,
					Proc: k / m.CoresPerProc,
					Core: k % m.CoresPerProc,
				})
			}
		}
	}
	return cores
}

// StrategyByName returns the named strategy: "consecutive", "scattered" or
// "mixed:<d>".
func StrategyByName(name string) (Strategy, error) {
	switch name {
	case "consecutive":
		return Consecutive{}, nil
	case "scattered":
		return Scattered{}, nil
	}
	var d int
	if n, err := fmt.Sscanf(name, "mixed:%d", &d); n == 1 && err == nil {
		return Mixed{D: d}, nil
	}
	return nil, fmt.Errorf("core: unknown mapping strategy %q", name)
}

// Mapping is the physical realization of a Schedule: for every layer and
// every group, the set of physical cores executing that group, in rank
// order (the rank order determines ring neighbourhoods of collectives).
type Mapping struct {
	Schedule *Schedule
	Machine  *arch.Machine
	Strategy Strategy

	// Cores[layer][group] lists the physical cores of the group.
	Cores [][][]arch.CoreID
}

// Map applies a mapping strategy to a schedule on the given machine. The
// machine must provide exactly the schedule's P cores (use arch.Machine
// Subset/SubsetCores to carve out a partition first).
func Map(s *Schedule, m *arch.Machine, strat Strategy) (*Mapping, error) {
	return MapCtx(context.Background(), s, m, strat)
}

// MapCtx is Map with cooperative cancellation: a canceled context returns
// an error wrapping ErrCanceled without touching the schedule.
func MapCtx(ctx context.Context, s *Schedule, m *arch.Machine, strat Strategy) (*Mapping, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapping %q: %w (%w)", s.Source.Name, ErrCanceled, err)
	}
	if m.TotalCores() < s.P {
		return nil, fmt.Errorf("schedule needs %d cores, machine %q has %d: %w",
			s.P, m.Name, m.TotalCores(), ErrNoCores)
	}
	seq := strat.Sequence(m)
	mp := &Mapping{Schedule: s, Machine: m, Strategy: strat}
	// All per-layer group headers come from one slab sized to the total
	// group count, so mapping an L-layer schedule costs two allocations
	// instead of one per layer plus append growth.
	totalGroups := 0
	for _, ls := range s.Layers {
		totalGroups += ls.NumGroups()
	}
	hdrSlab := make([][]arch.CoreID, totalGroups)
	mp.Cores = make([][][]arch.CoreID, 0, len(s.Layers))
	for _, ls := range s.Layers {
		layerCores := hdrSlab[:ls.NumGroups():ls.NumGroups()]
		hdrSlab = hdrSlab[ls.NumGroups():]
		off := 0
		for gi, sz := range ls.Sizes {
			layerCores[gi] = seq[off : off+sz]
			off += sz
		}
		mp.Cores = append(mp.Cores, layerCores)
	}
	return mp, nil
}

// GroupCores returns the physical cores of group gi in layer li.
func (mp *Mapping) GroupCores(li int, gi GroupID) []arch.CoreID {
	return mp.Cores[li][int(gi)]
}

// OrthogonalSets returns, for layer li, the sets of cores with the same
// position within different concurrently executing groups — the endpoints
// of the orthogonal communication operations of Section 4.2. Groups of
// different sizes contribute while they have a core at the position.
func (mp *Mapping) OrthogonalSets(li int) [][]arch.CoreID {
	groups := mp.Cores[li]
	maxLen := 0
	for _, g := range groups {
		if len(g) > maxLen {
			maxLen = len(g)
		}
	}
	var sets [][]arch.CoreID
	for pos := 0; pos < maxLen; pos++ {
		var set []arch.CoreID
		for _, g := range groups {
			if pos < len(g) {
				set = append(set, g[pos])
			}
		}
		if len(set) > 1 {
			sets = append(sets, set)
		}
	}
	return sets
}

// Validate checks that every layer's groups are pairwise disjoint and stay
// within the machine.
func (mp *Mapping) Validate() error {
	for li, layer := range mp.Cores {
		seen := make(map[arch.CoreID]int)
		for gi, cores := range layer {
			for _, c := range cores {
				if !mp.Machine.Contains(c) {
					return fmt.Errorf("core: layer %d group %d uses core %v outside machine", li, gi, c)
				}
				if prev, dup := seen[c]; dup {
					return fmt.Errorf("core: layer %d core %v in groups %d and %d", li, c, prev, gi)
				}
				seen[c] = gi
			}
		}
	}
	return nil
}
