// Package cost implements the execution-time cost model of Section 3.1:
//
//	T(M, q, mp) = Tcomp(M)/q + Tcomm(M, q, mp)
//
// The computational part assumes linear speedup (as the paper does); the
// communication part depends on the mapping pattern mp, i.e. on which
// physical cores execute the task and therefore which levels of the
// hierarchical interconnect its collective operations traverse.
//
// Collective operations are modelled after the algorithms the paper holds
// responsible for the observed behaviour: MPI_Allgather uses a ring
// algorithm for large messages (Section 4.4), where process i sends to
// process i+1 in rank order, so the per-step time is governed by the
// slowest link of the ring and by the contention of concurrent messages on
// the per-node network interface. Broadcast uses a binomial tree.
//
// The same primitives evaluate symbolic costs Tsymb(M, p) = T(M, p, dmp)
// for the scheduling step, where the default mapping pattern dmp charges
// the slowest interconnect (the node-to-node network) for every hop.
package cost

import (
	"math"

	"mtask/internal/arch"
	"mtask/internal/graph"
)

// Model evaluates task and communication costs on a machine. The zero
// Hybrid value models one MPI rank per core; with Hybrid set, the cores of
// one node inside a group form a single rank whose threads cooperate in
// shared memory, which shrinks the participant count of collectives at the
// price of a fork-join overhead per operation (Section 4.7).
type Model struct {
	Machine *arch.Machine

	// Hybrid enables the hybrid MPI+OpenMP execution model.
	Hybrid bool

	// ThreadsPerRank is the number of cores joined into one hybrid
	// rank; 0 means all cores of a node. Ignored unless Hybrid is set.
	ThreadsPerRank int
}

// WithMemo returns m: the model keeps no state and evaluates every cost
// directly.
//
// Deprecated: the model has no memo to enable. WithMemo stays only
// because the benchmark harness (benchmark/stages.go) still calls it.
func (m *Model) WithMemo() *Model { return m }

// CompTime converts a task's sequential work (in floating-point operations)
// executed by q cores into seconds, assuming the paper's linear speedup.
func (m *Model) CompTime(work float64, q int) float64 {
	if q < 1 {
		q = 1
	}
	return work / (float64(q) * m.Machine.CoreGFlops * 1e9)
}

// ranks reduces a group's core list to one representative core per hybrid
// rank, returning the representatives, the thread count of each rank, and
// the largest number of nodes any rank spans (1 unless the machine allows
// cross-node threads). Without hybrid mode every core is its own rank and
// threads is nil.
func (m *Model) ranks(cores []arch.CoreID) (reps []arch.CoreID, threads []int, maxSpan int) {
	maxSpan = 1
	if !m.Hybrid {
		return cores, nil, maxSpan
	}
	tpr := m.ThreadsPerRank
	if tpr <= 0 {
		tpr = m.Machine.CoresPerNode()
	}
	// Consecutive runs of cores on the same node are grouped into ranks
	// of up to tpr threads. On distributed shared memory machines
	// (SharedMemoryThreads) ranks may span nodes, so grouping is purely
	// by count.
	i := 0
	for i < len(cores) {
		j := i + 1
		for j < len(cores) && j-i < tpr &&
			(m.Machine.SharedMemoryThreads || cores[j].Node == cores[i].Node) {
			j++
		}
		reps = append(reps, cores[i])
		threads = append(threads, j-i)
		if span := arch.NodesSpanned(cores[i:j]); span > maxSpan {
			maxSpan = span
		}
		i = j
	}
	return reps, threads, maxSpan
}

// hybridOverhead is the fork-join cost added per collective operation in
// hybrid mode: the threads of every rank must be joined before and forked
// after the rank's MPI call, and joining threads spread over several nodes
// of a distributed-shared-memory machine costs proportionally more.
func (m *Model) hybridOverhead(span int) float64 {
	if !m.Hybrid {
		return 0
	}
	if span < 1 {
		span = 1
	}
	return m.Machine.HybridForkJoin * float64(span)
}

// Allgather returns the time of a multi-broadcast (MPI_Allgather) executed
// concurrently by the given groups of cores, where every core contributes
// bytesPerCore bytes. Each group runs a ring over its cores in rank order:
// q-1 steps, each moving one block across every ring link simultaneously.
//
// The per-step time of a group is the slowest of its ring links, where a
// link crossing the node boundary shares the source and destination nodes'
// network interfaces with all other concurrently active inter-node links:
// its effective bandwidth is divided by the maximum number of inter-node
// link endpoints at either node, across all groups. This contention term is
// what separates consecutive, mixed and scattered mappings.
func (m *Model) Allgather(groups [][]arch.CoreID, bytesPerCore int) float64 {
	times := m.allgatherTimes(groups, bytesPerCore)
	var worst float64
	for _, t := range times {
		if t > worst {
			worst = t
		}
	}
	return worst
}

// AllgatherIn returns the time of the idx-th group's ring allgather while
// all groups run concurrently and contend for the node interfaces. It is
// used to price one group's collectives in the context of the other
// groups of its layer.
func (m *Model) AllgatherIn(idx int, groups [][]arch.CoreID, bytesPerCore int) float64 {
	times := m.allgatherTimes(groups, bytesPerCore)
	if idx < 0 || idx >= len(times) {
		return 0
	}
	return times[idx]
}

// allgatherTimes computes the per-group ring times under mutual
// contention; empty groups yield zero entries. Every core must belong to
// m.Machine: the per-node counts are indexed by node.
func (m *Model) allgatherTimes(groups [][]arch.CoreID, bytesPerCore int) []float64 {
	out := make([]float64, len(groups))
	// Reduce to hybrid ranks and scale block sizes: each rank
	// contributes the combined data of its threads.
	type ringSpec struct {
		idx   int
		reps  []arch.CoreID
		block int
		ov    float64
	}
	specs := make([]ringSpec, 0, len(groups))
	for gi, g := range groups {
		if len(g) == 0 {
			continue
		}
		reps, threads, span := m.ranks(g)
		maxThreads := 1
		for _, th := range threads {
			if th > maxThreads {
				maxThreads = th
			}
		}
		specs = append(specs, ringSpec{
			idx:   gi,
			reps:  reps,
			block: bytesPerCore * maxThreads,
			ov:    m.hybridOverhead(span),
		})
	}
	// Per-node counts across all concurrent groups, in one scratch
	// slice: the ranks of every node, for the contention of the
	// small-message algorithm (every rank exchanges in every round),
	// and the inter-node ring links leaving and entering every node.
	// Links are full duplex, so outgoing and incoming traffic of a node
	// do not contend with each other; only links in the same direction
	// share the interface.
	nodes := m.Machine.Nodes
	counts := make([]int, 3*nodes)
	nodeRanks, nodeOut, nodeIn := counts[:nodes], counts[nodes:2*nodes], counts[2*nodes:]
	for _, sp := range specs {
		for i, r := range sp.reps {
			nodeRanks[r.Node]++
			if next := sp.reps[(i+1)%len(sp.reps)]; next.Node != r.Node {
				nodeOut[r.Node]++
				nodeIn[next.Node]++
			}
		}
	}
	for _, sp := range specs {
		q := len(sp.reps)
		if q <= 1 {
			out[sp.idx] = sp.ov
			continue
		}
		if sp.block <= smallAllgather {
			out[sp.idx] = m.recursiveDoubling(sp.reps, sp.block, nodeRanks) + sp.ov
			continue
		}
		var step float64
		for i, from := range sp.reps {
			to := sp.reps[(i+1)%q]
			lp := m.Machine.Link(from, to)
			t := lp.Latency
			if sp.block > 0 {
				bw := lp.Bandwidth
				if from.Node != to.Node {
					c := nodeOut[from.Node]
					if nodeIn[to.Node] > c {
						c = nodeIn[to.Node]
					}
					if c > 1 {
						bw /= float64(c)
					}
				}
				t += float64(sp.block) / bw
			}
			if t > step {
				step = t
			}
		}
		out[sp.idx] = float64(q-1)*step + sp.ov
	}
	return out
}

// smallAllgather is the per-rank block size (bytes) below which the
// allgather switches from the ring algorithm to recursive doubling, as
// MPI libraries do (the paper attributes its Fig. 14 results to the ring
// algorithm "for large messages"). The crossover sits where the rounds'
// latency dominates the accumulated payload.
const smallAllgather = 256

// recursiveDoubling models the small-message allgather: ceil(log2 q)
// rounds in which every rank exchanges its accumulated blocks with a
// partner at doubling rank distance, so with a consecutive mapping the
// early rounds stay inside nodes. Inter-node rounds contend for the node
// interfaces with every rank of the node (nodeRanks counts the ranks per
// node across all concurrent groups).
func (m *Model) recursiveDoubling(reps []arch.CoreID, block int, nodeRanks []int) float64 {
	q := len(reps)
	maxRanksPerNode := 1
	for _, r := range reps {
		if c := nodeRanks[r.Node]; c > maxRanksPerNode {
			maxRanksPerNode = c
		}
	}
	var t float64
	for dist := 1; dist < q; dist *= 2 {
		// Partner distance in rank order determines the link level of
		// this round.
		a, b := reps[0], reps[dist%q]
		lv := arch.CommLevel(a, b)
		if lv == arch.LevelCore {
			lv = arch.LevelProcessor
		}
		lp := m.Machine.Links[lv]
		bytes := float64(dist * block) // accumulated blocks exchanged
		bw := lp.Bandwidth
		if lv == arch.LevelNetwork && maxRanksPerNode > 1 {
			bw /= float64(maxRanksPerNode)
		}
		t += lp.Latency + bytes/bw
	}
	return t
}

// Broadcast returns the time for a broadcast of bytes from one core of the
// group to all others using a hierarchical binomial tree: the message
// first spreads across the nodes the group spans (network-level rounds),
// then within the nodes (node/processor-level rounds). A mapping that
// packs the group onto few nodes therefore needs fewer expensive rounds.
func (m *Model) Broadcast(cores []arch.CoreID, bytes int) float64 {
	reps, _, span := m.ranks(cores)
	q := len(reps)
	if q <= 1 {
		return m.hybridOverhead(span)
	}
	nodes := arch.NodesSpanned(reps)
	netRounds := 0.0
	if nodes > 1 {
		netRounds = math.Ceil(math.Log2(float64(nodes)))
	}
	totalRounds := math.Ceil(math.Log2(float64(q)))
	localRounds := totalRounds - netRounds
	if localRounds < 0 {
		localRounds = 0
	}
	t := netRounds * m.Machine.Links[arch.LevelNetwork].Transfer(bytes)
	if localRounds > 0 {
		localLevel := arch.LevelNode
		if arch.SlowestLevel(reps) == arch.LevelProcessor {
			localLevel = arch.LevelProcessor
		}
		t += localRounds * m.Machine.Links[localLevel].Transfer(bytes)
	}
	return t + m.hybridOverhead(span)
}

// Barrier returns the time of a barrier over the group, modelled as a
// zero-byte broadcast up and down the binomial tree.
func (m *Model) Barrier(cores []arch.CoreID) float64 {
	return 2 * m.Broadcast(cores, 0)
}

// Redistribute returns the cost TRe of moving a block-distributed data
// structure of the given total size from the cores of src to the cores of
// dst (Section 3.1). If the two groups are identical no transfer occurs.
// Otherwise every destination core receives its share of the data from the
// source cores; the transfer is charged at the slowest level between the
// two groups, with network contention equal to the largest number of
// communicating cores sharing one node.
func (m *Model) Redistribute(src, dst []arch.CoreID, totalBytes int) float64 {
	if totalBytes <= 0 || len(src) == 0 || len(dst) == 0 || sameCores(src, dst) {
		return 0
	}
	srcReps, _, srcSpan := m.ranks(src)
	dstReps, _, dstSpan := m.ranks(dst)
	span := srcSpan
	if dstSpan > span {
		span = dstSpan
	}
	// Slowest pairwise level between the two groups.
	lv := arch.SlowestLevel(append(append([]arch.CoreID{}, srcReps...), dstReps...))
	lp := m.Machine.Links[lv]
	par := len(srcReps)
	if len(dstReps) < par {
		par = len(dstReps)
	}
	per := float64(totalBytes) / float64(par)
	bw := lp.Bandwidth
	if lv == arch.LevelNetwork {
		// Cores of one node share its network interface.
		c := maxCoresPerNode(srcReps)
		if d := maxCoresPerNode(dstReps); d > c {
			c = d
		}
		if c > 1 {
			bw /= float64(c)
		}
	}
	return lp.Latency + per/bw + m.hybridOverhead(span)
}

func sameCores(a, b []arch.CoreID) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[arch.CoreID]struct{}, len(a))
	for _, c := range a {
		set[c] = struct{}{}
	}
	for _, c := range b {
		if _, ok := set[c]; !ok {
			return false
		}
	}
	return true
}

func maxCoresPerNode(cores []arch.CoreID) int {
	cnt := make(map[int]int)
	max := 0
	for _, c := range cores {
		cnt[c.Node]++
		if cnt[c.Node] > max {
			max = cnt[c.Node]
		}
	}
	return max
}

// TaskTime returns T(M, q, mp) for a task executed by the given physical
// cores: the linear-speedup computation time plus the task's internal
// collectives (CommCount ring multi-broadcasts of CommBytes total payload,
// i.e. CommBytes/q contributed per core).
func (m *Model) TaskTime(t *graph.Task, cores []arch.CoreID) float64 {
	q := len(cores)
	if q == 0 {
		return math.Inf(1)
	}
	if t.MaxWidth > 0 && q > t.MaxWidth {
		cores = cores[:t.MaxWidth]
		q = t.MaxWidth
	}
	tt := m.CompTime(t.Work, q)
	if t.CommCount > 0 && q > 1 {
		per := t.CommBytes / q
		if per < 1 && t.CommBytes > 0 {
			per = 1
		}
		tt += float64(t.CommCount) * m.Allgather([][]arch.CoreID{cores}, per)
	}
	if t.BcastCount > 0 && q > 1 {
		tt += float64(t.BcastCount) * m.Broadcast(cores, t.BcastBytes)
	}
	return tt
}

// --- Symbolic costs (Section 3.2) ---

// SymbolicTaskTime returns Tsymb(M, p) = T(M, p, dmp): the execution time
// of the task on p symbolic cores under the default mapping pattern dmp,
// which charges the slowest interconnect of the architecture for every
// communication hop. It is an upper bound of the physical execution time
// and is what the scheduling algorithm optimises before mapping.
func (m *Model) SymbolicTaskTime(t *graph.Task, p int) float64 {
	if p < 1 {
		return math.Inf(1)
	}
	if t.MaxWidth > 0 && p > t.MaxWidth {
		p = t.MaxWidth
	}
	tt := m.CompTime(t.Work, p)
	if t.CommCount > 0 && p > 1 {
		per := t.CommBytes / p
		if per < 1 && t.CommBytes > 0 {
			per = 1
		}
		tt += float64(t.CommCount) * m.SymbolicAllgather(p, per)
	}
	if t.BcastCount > 0 && p > 1 {
		tt += float64(t.BcastCount) * m.SymbolicBroadcast(p, t.BcastBytes)
	}
	return tt
}

// SymbolicBroadcast is the binomial-tree broadcast of p participants with
// every round charged at the network level (the default mapping pattern).
func (m *Model) SymbolicBroadcast(p, bytes int) float64 {
	if p <= 1 {
		return 0
	}
	lp := m.Machine.Links[arch.LevelNetwork]
	return math.Ceil(math.Log2(float64(p))) * lp.Transfer(bytes)
}

// SymbolicAllgather is the ring allgather of p participants each
// contributing bytesPerCore, with every hop charged at the network level
// and no contention (the default mapping pattern).
func (m *Model) SymbolicAllgather(p, bytesPerCore int) float64 {
	if p <= 1 {
		return 0
	}
	lp := m.Machine.Links[arch.LevelNetwork]
	return float64(p-1) * lp.Transfer(bytesPerCore)
}

// SymbolicRedistribute is the redistribution cost between two symbolic
// groups of sizes p1 and p2 under the default mapping pattern.
func (m *Model) SymbolicRedistribute(p1, p2, totalBytes int) float64 {
	if totalBytes <= 0 || p1 <= 0 || p2 <= 0 {
		return 0
	}
	lp := m.Machine.Links[arch.LevelNetwork]
	par := p1
	if p2 < par {
		par = p2
	}
	return lp.Transfer(totalBytes / par)
}
