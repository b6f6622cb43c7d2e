package cost

import (
	"math/rand"
	"testing"

	"mtask/internal/arch"
)

// allgatherTimesRef is the reference allgather model: the same ring and
// recursive-doubling costs as allgatherTimes, with the per-node rank and
// link counts kept in maps keyed by node index and every ring link stored
// before it is priced. allgatherTimes must agree with it bit for bit.
func (m *Model) allgatherTimesRef(groups [][]arch.CoreID, bytesPerCore int) []float64 {
	type ringLink struct {
		from, to arch.CoreID
	}
	out := make([]float64, len(groups))
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
		reps, threads, span := m.ranksRef(g)
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
	nodeRanks := make(map[int]int)
	for _, sp := range specs {
		for _, r := range sp.reps {
			nodeRanks[r.Node]++
		}
	}
	nodeOut := make(map[int]int)
	nodeIn := make(map[int]int)
	var allLinks [][]ringLink
	for _, sp := range specs {
		q := len(sp.reps)
		links := make([]ringLink, 0, q)
		if q > 1 {
			for i := 0; i < q; i++ {
				l := ringLink{from: sp.reps[i], to: sp.reps[(i+1)%q]}
				links = append(links, l)
				if l.from.Node != l.to.Node {
					nodeOut[l.from.Node]++
					nodeIn[l.to.Node]++
				}
			}
		}
		allLinks = append(allLinks, links)
	}
	for si, sp := range specs {
		q := len(sp.reps)
		if q <= 1 {
			out[sp.idx] = sp.ov
			continue
		}
		if sp.block <= smallAllgather {
			out[sp.idx] = m.recursiveDoublingRef(sp.reps, sp.block, nodeRanks) + sp.ov
			continue
		}
		var step float64
		for _, l := range allLinks[si] {
			lp := m.Machine.Link(l.from, l.to)
			t := lp.Latency
			if sp.block > 0 {
				bw := lp.Bandwidth
				if l.from.Node != l.to.Node {
					c := nodeOut[l.from.Node]
					if nodeIn[l.to.Node] > c {
						c = nodeIn[l.to.Node]
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

func (m *Model) recursiveDoublingRef(reps []arch.CoreID, block int, nodeRanks map[int]int) float64 {
	q := len(reps)
	maxRanksPerNode := 1
	for _, r := range reps {
		if c := nodeRanks[r.Node]; c > maxRanksPerNode {
			maxRanksPerNode = c
		}
	}
	var t float64
	for dist := 1; dist < q; dist *= 2 {
		a, b := reps[0], reps[dist%q]
		lv := arch.CommLevel(a, b)
		if lv == arch.LevelCore {
			lv = arch.LevelProcessor
		}
		lp := m.Machine.Links[lv]
		bytes := float64(dist * block)
		bw := lp.Bandwidth
		if lv == arch.LevelNetwork && maxRanksPerNode > 1 {
			bw /= float64(maxRanksPerNode)
		}
		t += lp.Latency + bytes/bw
	}
	return t
}

// ranksRef is ranks with an explicit thread count of 1 per rank when
// hybrid mode is off.
func (m *Model) ranksRef(cores []arch.CoreID) ([]arch.CoreID, []int, int) {
	if m.Hybrid {
		return m.ranks(cores)
	}
	threads := make([]int, len(cores))
	for i := range threads {
		threads[i] = 1
	}
	return cores, threads, 1
}

// TestAllgatherMatchesReference pins allgatherTimes to the map-based
// reference on random concurrent groups over CHiC, JuRoPA and SGI Altix
// subsets, with hybrid mode on and off, several thread counts per rank
// and block sizes on both sides of smallAllgather.
func TestAllgatherMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	machines := []*arch.Machine{
		arch.CHiC().Subset(1), arch.CHiC().Subset(6),
		arch.JuRoPA().Subset(3), arch.SGIAltix().Subset(4),
	}
	byteSizes := []int{0, 1, 8, 63, 64, smallAllgather / 4, smallAllgather - 1,
		smallAllgather, smallAllgather + 1, 4096, 1 << 20}
	for trial := 0; trial < 400; trial++ {
		mach := machines[rng.Intn(len(machines))]
		m := &Model{Machine: mach}
		if rng.Intn(2) == 0 {
			m.Hybrid = true
			m.ThreadsPerRank = []int{0, 1, 2, 3, 4, 8}[rng.Intn(6)]
		}
		// Disjoint groups: a shuffled or consecutive core order cut at
		// random points; an empty group now and then.
		cores := mach.AllCores()
		if rng.Intn(2) == 0 {
			rng.Shuffle(len(cores), func(i, j int) { cores[i], cores[j] = cores[j], cores[i] })
		}
		var groups [][]arch.CoreID
		for len(cores) > 0 {
			k := rng.Intn(len(cores) + 1)
			groups = append(groups, cores[:k])
			cores = cores[k:]
			if rng.Intn(4) == 0 {
				break // leave the rest of the machine idle
			}
		}
		bytes := byteSizes[rng.Intn(len(byteSizes))]
		got := m.allgatherTimes(groups, bytes)
		want := m.allgatherTimesRef(groups, bytes)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%s, hybrid=%v tpr=%d, %d B): group %d time %v, reference %v",
					trial, mach.Name, m.Hybrid, m.ThreadsPerRank, bytes, i, got[i], want[i])
			}
		}
	}
}
