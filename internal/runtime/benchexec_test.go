package runtime

import (
	"fmt"
	"testing"
)

// Execution-layer microbenchmarks: the per-operation cost of the collective
// engine (barrier rounds, broadcast, allgather, reduction, exchange and
// split) at several group sizes. Run with
//
//	go test -run '^$' -bench 'BenchmarkExec' -benchtime 2000x -count 3 ./internal/runtime
//
// The ns/op of one iteration covers ONE collective performed by ALL
// members (the world goroutines run the loop in lockstep), and allocs/op
// aggregates the allocations of every member.

// benchCollective runs fn b.N times on every rank of a p-core world.
func benchCollective(b *testing.B, p int, fn func(c *Comm, i int)) {
	b.Helper()
	w, err := NewWorld(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	w.Run(func(c *Comm) {
		for i := 0; i < b.N; i++ {
			fn(c, i)
		}
	})
}

func BenchmarkExecBarrier(b *testing.B) {
	for _, p := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			benchCollective(b, p, func(c *Comm, _ int) {
				c.Barrier()
			})
		})
	}
}

func BenchmarkExecBcast(b *testing.B) {
	const n = 256
	for _, p := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			data := make([]float64, n)
			for i := range data {
				data[i] = float64(i)
			}
			benchCollective(b, p, func(c *Comm, _ int) {
				var src []float64
				if c.Rank() == 0 {
					src = data
				}
				c.Bcast(0, src)
			})
		})
	}
}

func BenchmarkExecAllgather(b *testing.B) {
	const n = 256
	for _, p := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			benchCollective(b, p, func(c *Comm, _ int) {
				lo, hi := BlockRange(n, c.Size(), c.Rank())
				contrib := make([]float64, hi-lo)
				c.Allgather(contrib)
			})
		})
	}
}

// The *Into variants write into caller-owned buffers — their allocs/op
// must be zero in steady state.

func BenchmarkExecBcastInto(b *testing.B) {
	const n = 256
	for _, p := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			w, err := NewWorld(p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			w.Run(func(c *Comm) {
				buf := make([]float64, n)
				for i := 0; i < b.N; i++ {
					c.BcastInto(0, buf)
				}
			})
		})
	}
}

func BenchmarkExecAllgatherInto(b *testing.B) {
	const n = 256
	for _, p := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			w, err := NewWorld(p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			w.Run(func(c *Comm) {
				lo, hi := BlockRange(n, c.Size(), c.Rank())
				contrib := make([]float64, hi-lo)
				var dst []float64
				for i := 0; i < b.N; i++ {
					dst = c.AllgatherInto(contrib, dst)
				}
			})
		})
	}
}

func BenchmarkExecReduceSum(b *testing.B) {
	for _, p := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			benchCollective(b, p, func(c *Comm, i int) {
				c.AllreduceSum(float64(i))
			})
		})
	}
}

func BenchmarkExecReduceMax(b *testing.B) {
	benchCollective(b, 8, func(c *Comm, i int) {
		c.AllreduceMax(float64(i))
	})
}

func BenchmarkExecExchangeAny(b *testing.B) {
	benchCollective(b, 4, func(c *Comm, i int) {
		c.ExchangeAny(c.Rank())
	})
}

func BenchmarkExecSplit(b *testing.B) {
	benchCollective(b, 8, func(c *Comm, i int) {
		g := c.Split(c.Rank()/4, c.Rank(), Group)
		_ = g
	})
}
