// Dynamictasks: the dynamic counterpart of the static layer-based
// scheduler (paper Section 2.2.2, as supported by the authors' Tlib
// library): M-tasks created recursively at runtime split their core group
// (divide-and-conquer), and the machine allocator assigns cores to a
// stream of SPMD M-tasks as nodes become free.
package main

import (
	"context"
	"fmt"
	"log"
	"sync/atomic"

	"mtask/internal/arch"
	"mtask/internal/dynsched"
	"mtask/internal/graph"
	"mtask/internal/plan"
	"mtask/internal/runtime"
)

func main() {
	// --- recursive M-task creation: parallel mergesort ---
	const n = 1 << 16
	data := make([]float64, n)
	for i := range data {
		data[i] = float64((i*2654435761 + 12345) % 100003)
	}
	sorted := make([]float64, n)
	copy(sorted, data)

	var sortTask func(lo, hi int) dynsched.Task
	sortTask = func(lo, hi int) dynsched.Task {
		return func(ctx *dynsched.Ctx) error {
			if ctx.Comm.Size() == 1 || hi-lo < 1024 {
				if ctx.Comm.Rank() == 0 {
					insertionSort(sorted[lo:hi])
				}
				ctx.Comm.Barrier()
				return nil
			}
			mid := (lo + hi) / 2
			// Split the group proportionally to the halves and sort
			// them as concurrent child M-tasks.
			if err := ctx.SplitRun(
				[]float64{float64(mid - lo), float64(hi - mid)},
				[]dynsched.Task{sortTask(lo, mid), sortTask(mid, hi)},
			); err != nil {
				return err
			}
			if ctx.Comm.Rank() == 0 {
				merge(sorted[lo:hi], mid-lo)
			}
			ctx.Comm.Barrier()
			return nil
		}
	}

	w, err := runtime.NewWorld(8)
	if err != nil {
		log.Fatal(err)
	}
	if err := dynsched.Run(w, sortTask(0, n)); err != nil {
		log.Fatal(err)
	}
	ok := true
	for i := 1; i < n; i++ {
		if sorted[i-1] > sorted[i] {
			ok = false
			break
		}
	}
	fmt.Printf("recursive divide-and-conquer sort of %d elements on 8 cores: sorted=%v\n", n, ok)

	// --- allocator: SPMD M-tasks admitted as nodes become free ---
	m := arch.CHiC().Subset(4)
	alloc, err := dynsched.NewAllocator(m, plan.New())
	if err != nil {
		log.Fatal(err)
	}
	var done atomic.Int64
	body := func(t *graph.Task) runtime.TaskFunc {
		return func(tc *runtime.TaskCtx) error {
			// A tiny SPMD computation per task.
			tc.Group.AllreduceSum(float64(tc.Group.Rank() + 1))
			if tc.Group.Rank() == 0 {
				done.Add(1)
			}
			return nil
		}
	}
	jobs := make([]dynsched.Job, 10)
	for i := range jobs {
		name := fmt.Sprintf("job%d", i)
		g := graph.New(name)
		g.AddTask(&graph.Task{Name: name, Kind: graph.KindBasic, Work: 1e6})
		nodes := 1 + i%2
		jobs[i] = dynsched.Job{Name: name, Graph: g, Body: body, MinNodes: nodes, MaxNodes: nodes, Rigid: true}
	}
	results, err := alloc.RunTrace(context.Background(), jobs)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
	}
	fmt.Printf("allocator executed %d M-tasks (1-2 nodes each) on %d nodes (%d cores)\n",
		done.Load(), m.Nodes, m.TotalCores())
}

func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// merge merges the two sorted halves a[:mid] and a[mid:] in place.
func merge(a []float64, mid int) {
	out := make([]float64, len(a))
	i, j := 0, mid
	for k := range out {
		switch {
		case i >= mid:
			out[k] = a[j]
			j++
		case j >= len(a):
			out[k] = a[i]
			i++
		case a[i] <= a[j]:
			out[k] = a[i]
			i++
		default:
			out[k] = a[j]
			j++
		}
	}
	copy(a, out)
}
