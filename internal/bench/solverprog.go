package bench

import (
	"fmt"

	"mtask/internal/arch"
	"mtask/internal/cluster"
	"mtask/internal/core"
	"mtask/internal/cost"
)

// stepSpec describes the per-time-step execution structure of a solver
// program version: the work and collectives of the concurrent core groups,
// the orthogonal exchanges between them, and the global phases. The
// structures follow Table 1 (see internal/ode/tables.go); the
// data-parallel versions use a single group spanning all cores.
type stepSpec struct {
	name string

	// groupWork[g] is the computational work of group g per step.
	groupWork []float64
	// groupTag / groupTagBytes: group-internal multi-broadcasts per
	// step (payload = total bytes gathered across the group).
	groupTag      int
	groupTagBytes int
	// groupBcast / groupBcastBytes: group-internal broadcasts.
	groupBcast      int
	groupBcastBytes int

	// orthoOps / orthoBytes: concurrent allgathers over the orthogonal
	// core sets (bytes contributed per core).
	orthoOps   int
	orthoBytes int

	// global phases: work executed by all cores plus global collectives.
	globalWork       float64
	globalTag        int
	globalTagPerCore int // bytes contributed per core
	globalBcast      int
	globalBcastBytes int
}

// buildStepProgram lays out one time step on P cores of the machine under
// the mapping strategy and returns the program together with the group
// core sets: [global init: work] -> [group phase] -> [orthogonal exchange]
// -> [global collectives]. Chaining `steps` copies makes redistribution
// effects between steps visible.
func buildStepProgram(mach *arch.Machine, p int, strat core.Strategy, sp stepSpec, steps int) (*cluster.Program, error) {
	if mach.TotalCores() < p {
		return nil, fmt.Errorf("bench: machine %q has %d cores, need %d", mach.Name, mach.TotalCores(), p)
	}
	sizes, err := core.ProportionalGroupSizes(sp.groupWork, p)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	seq := strat.Sequence(mach)[:p]
	groups := make([][]arch.CoreID, len(sizes))
	off := 0
	for gi, sz := range sizes {
		groups[gi] = seq[off : off+sz]
		off += sz
	}
	// Orthogonal sets: cores with equal position in different groups.
	var ortho [][]arch.CoreID
	maxLen := 0
	for _, grp := range groups {
		if len(grp) > maxLen {
			maxLen = len(grp)
		}
	}
	for pos := 0; pos < maxLen; pos++ {
		var set []arch.CoreID
		for _, grp := range groups {
			if pos < len(grp) {
				set = append(set, grp[pos])
			}
		}
		if len(set) > 1 {
			ortho = append(ortho, set)
		}
	}

	prog := &cluster.Program{Name: sp.name}
	prev := -1
	for s := 0; s < steps; s++ {
		var deps []int
		if prev >= 0 {
			deps = []int{prev}
		}
		// Global init work (e.g. the initial stage value / Jacobian).
		if sp.globalWork > 0 {
			idx := prog.Add(cluster.TaskSpec{
				Name:  fmt.Sprintf("%s-init-%d", sp.name, s),
				Work:  sp.globalWork,
				Cores: seq,
				Deps:  deps,
			})
			deps = []int{idx}
		}
		// Group phase: the computation and broadcasts run per group;
		// the group-internal multi-broadcasts of all groups execute
		// concurrently and contend for the node interfaces, so they
		// are modelled as one concurrent-allgather phase over all
		// group core sets.
		var groupIdx []int
		for gi, grp := range groups {
			idx := prog.Add(cluster.TaskSpec{
				Name:       fmt.Sprintf("%s-g%d-%d", sp.name, gi, s),
				Work:       sp.groupWork[gi],
				Cores:      grp,
				BcastBytes: sp.groupBcastBytes,
				BcastCount: sp.groupBcast,
				Deps:       deps,
			})
			groupIdx = append(groupIdx, idx)
		}
		last := groupIdx
		if sp.groupTag > 0 {
			minSize := len(groups[0])
			for _, grp := range groups {
				if len(grp) < minSize {
					minSize = len(grp)
				}
			}
			idx := prog.Add(cluster.TaskSpec{
				Name:         fmt.Sprintf("%s-gtags-%d", sp.name, s),
				CommSets:     groups,
				CommSetBytes: sp.groupTagBytes / minSize,
				CommSetOps:   sp.groupTag,
				Deps:         groupIdx,
			})
			last = []int{idx}
		}
		// Orthogonal exchange.
		if sp.orthoOps > 0 && len(ortho) > 0 {
			idx := prog.Add(cluster.TaskSpec{
				Name:         fmt.Sprintf("%s-ortho-%d", sp.name, s),
				CommSets:     ortho,
				CommSetBytes: sp.orthoBytes,
				CommSetOps:   sp.orthoOps,
				Deps:         last,
			})
			last = []int{idx}
		}
		// Global collectives.
		if sp.globalTag > 0 || sp.globalBcast > 0 {
			spec := cluster.TaskSpec{
				Name: fmt.Sprintf("%s-global-%d", sp.name, s),
				Deps: last,
			}
			if sp.globalTag > 0 {
				spec.CommSets = [][]arch.CoreID{seq}
				spec.CommSetBytes = sp.globalTagPerCore
				spec.CommSetOps = sp.globalTag
			}
			if sp.globalBcast > 0 {
				spec.Cores = seq
				spec.BcastCount = sp.globalBcast
				spec.BcastBytes = sp.globalBcastBytes
			}
			last = []int{prog.Add(spec)}
		}
		// Join for the next step.
		barrier := prog.Add(cluster.TaskSpec{
			Name: fmt.Sprintf("%s-join-%d", sp.name, s),
			Deps: append(append([]int{}, groupIdx...), last...),
		})
		prev = barrier
	}
	return prog, nil
}

// runStep simulates `steps` chained time steps of the spec and returns the
// time per step.
func runStep(model *cost.Model, mach *arch.Machine, p int, strat core.Strategy, sp stepSpec, steps int) (float64, error) {
	prog, err := buildStepProgram(mach, p, strat, sp, steps)
	if err != nil {
		return 0, err
	}
	res, err := cluster.Simulate(model, prog)
	if err != nil {
		return 0, err
	}
	return res.Makespan / float64(steps), nil
}

// --- solver step specs (counts from Table 1, work from Section 3.1) ---

// equalWork returns g equal work shares.
func equalWork(total float64, g int) []float64 {
	out := make([]float64, g)
	for i := range out {
		out[i] = total / float64(g)
	}
	return out
}

// epolSpec returns the EPOL step spec: dp uses a single group with
// R(R+1)/2 global multi-broadcasts; tp pairs the chains on R/2 groups
// ((R+1) group Tags each), re-distributes orthogonally and broadcasts the
// step decision.
func epolSpec(n, r int, evalFlops float64, dp bool, p int) stepSpec {
	vb := 8 * n
	micro := float64(n) * (2 + evalFlops)
	chains := float64(r*(r+1)/2) * micro
	combine := float64(n) * (3*float64(r*(r-1))/2 + float64(r))
	if dp {
		return stepSpec{
			name:          fmt.Sprintf("EPOL-dp(R=%d)", r),
			groupWork:     []float64{chains + combine},
			groupTag:      r * (r + 1) / 2,
			groupTagBytes: vb,
		}
	}
	g := r / 2
	if g < 1 {
		g = 1
	}
	q := maxInt(1, p/g)
	return stepSpec{
		name:             fmt.Sprintf("EPOL-tp(R=%d)", r),
		groupWork:        equalWork(chains, g),
		groupTag:         r + 1,
		groupTagBytes:    vb,
		orthoOps:         1,
		orthoBytes:       2 * vb / q, // the group's two chain blocks per core
		globalWork:       combine,
		globalBcast:      1,
		globalBcastBytes: 16,
	}
}

// irkSpec returns the IRK step spec (Table 1: dp (K*m+1) global Tag; tp 1
// global Tag, m group Tag, m ortho Tag).
func irkSpec(n, k, m int, evalFlops float64, dp bool, p int) stepSpec {
	vb := 8 * n
	stage := float64(n) * (2*float64(k) + evalFlops)
	init := float64(n) * evalFlops
	if dp {
		return stepSpec{
			name:          fmt.Sprintf("IRK-dp(K=%d,m=%d)", k, m),
			groupWork:     []float64{init + float64(k*m)*stage},
			groupTag:      k*m + 1,
			groupTagBytes: vb,
		}
	}
	q := maxInt(1, p/k)
	return stepSpec{
		name:             fmt.Sprintf("IRK-tp(K=%d,m=%d)", k, m),
		groupWork:        equalWork(float64(k*m)*stage, k),
		groupTag:         m,
		groupTagBytes:    vb,
		orthoOps:         m,
		orthoBytes:       vb / q, // a stage block per core position
		globalWork:       init,
		globalTag:        1,
		globalTagPerCore: vb / maxInt(1, p), // contributed blocks sum to the vector
	}
}

// diirkSpec returns the DIIRK step spec: per iteration and stage a
// distributed linear solve with n pivot-row broadcasts — far more
// communication within the M-tasks than IRK (Section 4.5).
func diirkSpec(n, k, iters int, evalFlops float64, dp bool, p int) stepSpec {
	vb := 8 * n
	stage := float64(n) * (2*float64(k) + evalFlops)
	solve := 2.0 / 3.0 * float64(n) * float64(n) * float64(n)
	jacobian := float64(n) * float64(n) * evalFlops
	pivotBytes := 8 * (n + 1)
	if dp {
		return stepSpec{
			name:            fmt.Sprintf("DIIRK-dp(K=%d)", k),
			groupWork:       []float64{jacobian + float64(k*iters)*(stage+solve)},
			groupTag:        1 + k*iters,
			groupTagBytes:   vb,
			groupBcast:      k * n * iters,
			groupBcastBytes: pivotBytes,
		}
	}
	q := maxInt(1, p/k)
	return stepSpec{
		name:             fmt.Sprintf("DIIRK-tp(K=%d)", k),
		groupWork:        equalWork(float64(k)*(jacobian+float64(iters)*(stage+solve)), k),
		groupTag:         iters,
		groupTagBytes:    vb,
		groupBcast:       n * iters,
		groupBcastBytes:  pivotBytes,
		orthoOps:         iters,
		orthoBytes:       vb / q,
		globalTag:        1,
		globalTagPerCore: vb / maxInt(1, p),
	}
}

// pabSpec returns the PAB/PABM step spec (m = 0 for PAB).
func pabSpec(n, k, m int, evalFlops float64, dp bool, p int) stepSpec {
	vb := 8 * n
	stage := float64(1+m) * float64(n) * (2*float64(k) + evalFlops)
	name := "PAB"
	if m > 0 {
		name = "PABM"
	}
	if dp {
		return stepSpec{
			name:          fmt.Sprintf("%s-dp(K=%d,m=%d)", name, k, m),
			groupWork:     []float64{float64(k) * stage},
			groupTag:      k * (1 + m),
			groupTagBytes: vb,
		}
	}
	q := maxInt(1, p/k)
	return stepSpec{
		name:          fmt.Sprintf("%s-tp(K=%d,m=%d)", name, k, m),
		groupWork:     equalWork(float64(k)*stage, k),
		groupTag:      1 + m,
		groupTagBytes: vb,
		orthoOps:      1,
		orthoBytes:    vb / q,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
