// Package arch models hierarchical multi-core cluster architectures as a
// tree of machine -> nodes -> processors -> cores, following Section 3.3 of
// Dümmler, Rauber, Rünger: "Combined scheduling and mapping for scalable
// computing with parallel tasks" (the journal version of the SC/MTAGS 2009
// paper "Scalable computing with parallel tasks").
//
// A physical core is identified by the label nid.pid.cid giving the node,
// processor and core indices. The tree is homogeneous in core type but
// heterogeneous in interconnect: communication between two cores is
// attributed to the level of their lowest common ancestor (same processor,
// same node, or the cluster network).
package arch

import (
	"errors"
	"fmt"
	"strconv"
)

// ErrInvalidMachine is the sentinel wrapped by every Machine.Validate
// failure; test with errors.Is.
var ErrInvalidMachine = errors.New("arch: invalid machine")

// Level identifies the interconnect level used by a communication between
// two cores, determined by their lowest common ancestor in the architecture
// tree.
type Level int

const (
	// LevelCore means the two endpoints are the same core (no transfer).
	LevelCore Level = iota
	// LevelProcessor means cores of the same processor communicate
	// (shared cache / on-die interconnect).
	LevelProcessor
	// LevelNode means cores of different processors on the same node
	// communicate (shared memory / front-side bus).
	LevelNode
	// LevelNetwork means cores on different nodes communicate over the
	// cluster interconnect.
	LevelNetwork
)

// NumLevels is the number of distinct communication levels.
const NumLevels = 4

func (l Level) String() string {
	switch l {
	case LevelCore:
		return "core"
	case LevelProcessor:
		return "processor"
	case LevelNode:
		return "node"
	case LevelNetwork:
		return "network"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// LinkPerf holds the point-to-point performance parameters of one
// interconnect level: startup latency in seconds and transfer bandwidth in
// bytes per second.
type LinkPerf struct {
	Latency   float64 // seconds per message (startup / per-hop cost)
	Bandwidth float64 // bytes per second
}

// Transfer returns the time to move n bytes across a link of this level.
func (lp LinkPerf) Transfer(n int) float64 {
	if n <= 0 {
		return lp.Latency
	}
	return lp.Latency + float64(n)/lp.Bandwidth
}

// Machine describes a homogeneous hierarchical cluster: Nodes nodes, each
// with ProcsPerNode processors of CoresPerProc cores. Links gives the
// point-to-point performance per communication level (LevelProcessor,
// LevelNode, LevelNetwork; LevelCore is free).
type Machine struct {
	Name         string
	Nodes        int
	ProcsPerNode int
	CoresPerProc int

	// CoreGFlops is the peak floating-point rate of one core in GFlop/s,
	// used to convert operation counts of the cost model into seconds.
	CoreGFlops float64

	// Links holds per-level link performance, indexed by Level. The
	// LevelCore entry is ignored.
	Links [NumLevels]LinkPerf

	// HybridForkJoin is the overhead in seconds of a fork-join of the
	// OpenMP-style threads of one hybrid rank (used by the hybrid
	// MPI+OpenMP execution model, Section 4.7).
	HybridForkJoin float64

	// SharedMemoryThreads reports whether OpenMP-style threads may span
	// node boundaries (true only for the SGI Altix distributed shared
	// memory system in the paper's evaluation).
	SharedMemoryThreads bool
}

// TotalCores returns the number of physical cores of the machine.
func (m *Machine) TotalCores() int { return m.Nodes * m.ProcsPerNode * m.CoresPerProc }

// CoresPerNode returns the number of cores of one node.
func (m *Machine) CoresPerNode() int { return m.ProcsPerNode * m.CoresPerProc }

// Validate checks the machine description for consistency.
func (m *Machine) Validate() error {
	if m.Nodes <= 0 || m.ProcsPerNode <= 0 || m.CoresPerProc <= 0 {
		return fmt.Errorf("%w: machine %q has non-positive shape %dx%dx%d",
			ErrInvalidMachine, m.Name, m.Nodes, m.ProcsPerNode, m.CoresPerProc)
	}
	if m.CoreGFlops <= 0 {
		return fmt.Errorf("%w: machine %q has non-positive core rate", ErrInvalidMachine, m.Name)
	}
	for l := LevelProcessor; l <= LevelNetwork; l++ {
		lp := m.Links[l]
		if lp.Latency < 0 || lp.Bandwidth <= 0 {
			return fmt.Errorf("%w: machine %q has invalid link perf at level %s", ErrInvalidMachine, m.Name, l)
		}
	}
	return nil
}

// CoreID identifies a physical core by node, processor and core index, all
// zero-based. The paper writes the label as nid.pid.cid (one-based); String
// follows the paper's one-based convention.
type CoreID struct {
	Node, Proc, Core int
}

// String returns the paper-style one-based label nid.pid.cid.
func (c CoreID) String() string {
	var buf [24]byte
	return string(c.AppendLabel(buf[:0]))
}

// AppendLabel appends the label String returns to b, for callers that
// render many labels into one buffer (the /v1/plan reply).
func (c CoreID) AppendLabel(b []byte) []byte {
	b = strconv.AppendInt(b, int64(c.Node)+1, 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(c.Proc)+1, 10)
	b = append(b, '.')
	return strconv.AppendInt(b, int64(c.Core)+1, 10)
}

// Rank returns the position of the core in the canonical consecutive
// enumeration of the machine's cores (node-major, then processor, then
// core).
func (m *Machine) Rank(c CoreID) int {
	return (c.Node*m.ProcsPerNode+c.Proc)*m.CoresPerProc + c.Core
}

// CoreByRank returns the CoreID at the given canonical rank.
func (m *Machine) CoreByRank(r int) CoreID {
	cpp := m.CoresPerProc
	ppn := m.ProcsPerNode
	return CoreID{
		Node: r / (ppn * cpp),
		Proc: (r / cpp) % ppn,
		Core: r % cpp,
	}
}

// Contains reports whether the core id is valid for this machine.
func (m *Machine) Contains(c CoreID) bool {
	return c.Node >= 0 && c.Node < m.Nodes &&
		c.Proc >= 0 && c.Proc < m.ProcsPerNode &&
		c.Core >= 0 && c.Core < m.CoresPerProc
}

// CommLevel returns the interconnect level used when cores a and b
// communicate: the level of their lowest common ancestor in the
// architecture tree.
func CommLevel(a, b CoreID) Level {
	switch {
	case a.Node != b.Node:
		return LevelNetwork
	case a.Proc != b.Proc:
		return LevelNode
	case a.Core != b.Core:
		return LevelProcessor
	default:
		return LevelCore
	}
}

// Link returns the link performance for communication between cores a and
// b. Communication of a core with itself is free.
func (m *Machine) Link(a, b CoreID) LinkPerf {
	lv := CommLevel(a, b)
	if lv == LevelCore {
		return LinkPerf{Latency: 0, Bandwidth: 1e18}
	}
	return m.Links[lv]
}

// Transfer returns the time for a point-to-point message of n bytes between
// cores a and b.
func (m *Machine) Transfer(a, b CoreID, n int) float64 {
	return m.Link(a, b).Transfer(n)
}

// AllCores enumerates the machine's cores in canonical consecutive order.
func (m *Machine) AllCores() []CoreID {
	cores := make([]CoreID, 0, m.TotalCores())
	for n := 0; n < m.Nodes; n++ {
		for p := 0; p < m.ProcsPerNode; p++ {
			for c := 0; c < m.CoresPerProc; c++ {
				cores = append(cores, CoreID{Node: n, Proc: p, Core: c})
			}
		}
	}
	return cores
}

// NodesSpanned returns the number of distinct nodes occupied by the given
// cores.
func NodesSpanned(cores []CoreID) int {
	seen := make(map[int]struct{}, len(cores))
	for _, c := range cores {
		seen[c.Node] = struct{}{}
	}
	return len(seen)
}

// SlowestLevel returns the slowest (highest) communication level occurring
// between any pair of the given cores. For fewer than two cores the result
// is LevelCore.
func SlowestLevel(cores []CoreID) Level {
	if len(cores) < 2 {
		return LevelCore
	}
	// The slowest pair level is determined by whether all cores share a
	// node, and within that a processor; no need for a quadratic scan.
	sameNode, sameProc := true, true
	for _, c := range cores[1:] {
		if c.Node != cores[0].Node {
			return LevelNetwork
		}
		if c.Proc != cores[0].Proc {
			sameProc = false
		}
	}
	_ = sameNode
	if !sameProc {
		return LevelNode
	}
	return LevelProcessor
}

// Subset returns a Machine restricted to the first n nodes of m. It is used
// to scale experiments ("p cores of the CHiC cluster") while keeping the
// per-node shape. Panics if n exceeds the node count.
func (m *Machine) Subset(nodes int) *Machine {
	if nodes < 1 || nodes > m.Nodes {
		panic(fmt.Sprintf("arch: subset of %d nodes out of range for %q (%d nodes)", nodes, m.Name, m.Nodes))
	}
	s := *m
	s.Nodes = nodes
	s.Name = fmt.Sprintf("%s[%d nodes]", m.Name, nodes)
	return &s
}

// SubsetCores returns a Machine restricted to the smallest number of nodes
// that provides at least p cores. Panics if p exceeds the machine size or
// is not a multiple of the node size (the paper's experiments always use
// whole nodes).
func (m *Machine) SubsetCores(p int) *Machine {
	cpn := m.CoresPerNode()
	if p < 1 || p > m.TotalCores() {
		panic(fmt.Sprintf("arch: %d cores out of range for %q", p, m.Name))
	}
	nodes := (p + cpn - 1) / cpn
	return m.Subset(nodes)
}

// Partition returns a Machine restricted to the given number of whole
// nodes — the allocation unit of the machine-level job scheduler. It is
// Subset with an error return instead of a panic: partition sizes come
// from admission decisions, not fixed experiment configurations, so an
// out-of-range size must be a recoverable error. Equal-sized partitions
// carry equal names, so schedule-cache fingerprints are shared across
// jobs and across resizes back to a previous size.
func (m *Machine) Partition(nodes int) (*Machine, error) {
	if nodes < 1 || nodes > m.Nodes {
		return nil, fmt.Errorf("%w: partition of %d nodes out of range for %q (%d nodes)",
			ErrInvalidMachine, nodes, m.Name, m.Nodes)
	}
	return m.Subset(nodes), nil
}

// WithoutCores returns a Machine shrunk by n cores, rounded up to whole
// nodes (the machine model is homogeneous per node, so degradation removes
// the smallest number of nodes covering the lost cores). It is the
// machine-side half of degrade-and-replan: after a core group is lost, the
// planner reschedules on m.WithoutCores(lost). The returned machine's name
// is annotated with the shrink. An error wrapping ErrInvalidMachine is
// returned when no whole node survives.
func (m *Machine) WithoutCores(n int) (*Machine, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: cannot remove %d cores from %q", ErrInvalidMachine, n, m.Name)
	}
	if n == 0 {
		return m, nil
	}
	cpn := m.CoresPerNode()
	lostNodes := (n + cpn - 1) / cpn
	if lostNodes >= m.Nodes {
		return nil, fmt.Errorf("%w: removing %d cores (%d nodes) leaves no node of %q (%d nodes)",
			ErrInvalidMachine, n, lostNodes, m.Name, m.Nodes)
	}
	s := *m
	s.Nodes = m.Nodes - lostNodes
	s.Name = fmt.Sprintf("%s[-%d cores]", m.Name, n)
	return &s, nil
}
