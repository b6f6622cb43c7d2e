package dynsched

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"mtask/internal/runtime"
)

func TestSplitSizes(t *testing.T) {
	sizes, err := SplitSizes(8, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sizes[0] != 6 || sizes[1] != 2 {
		t.Fatalf("sizes = %v, want [6 2]", sizes)
	}
	// Zero weights split evenly.
	sizes, _ = SplitSizes(7, []float64{0, 0, 0})
	if sizes[0]+sizes[1]+sizes[2] != 7 {
		t.Fatalf("even split %v", sizes)
	}
	if _, err := SplitSizes(2, []float64{1, 1, 1}); err == nil {
		t.Fatal("oversplit accepted")
	}
	if _, err := SplitSizes(4, nil); err == nil {
		t.Fatal("empty split accepted")
	}
	if _, err := SplitSizes(4, []float64{-1, 2}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestRunRoot(t *testing.T) {
	w, _ := runtime.NewWorld(6)
	var ran atomic.Int64
	err := Run(w, func(ctx *Ctx) error {
		ran.Add(1)
		if ctx.Depth != 0 {
			t.Errorf("root depth %d", ctx.Depth)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 6 {
		t.Fatalf("root ran on %d cores", ran.Load())
	}
}

func TestSplitRunRecursive(t *testing.T) {
	// Divide and conquer: sum an array by recursively halving both the
	// data and the core group, like a Tlib program.
	const n = 1 << 12
	data := make([]float64, n)
	var want float64
	for i := range data {
		data[i] = float64(i % 23)
		want += data[i]
	}
	results := make(chan float64, 16)

	var sumTask func(lo, hi int) Task
	sumTask = func(lo, hi int) Task {
		return func(ctx *Ctx) error {
			if ctx.Comm.Size() == 1 || hi-lo < 64 {
				var s float64
				for _, v := range data[lo:hi] {
					s += v
				}
				// Only rank 0 of the leaf group reports.
				if ctx.Comm.Rank() == 0 {
					results <- s
				}
				return nil
			}
			mid := (lo + hi) / 2
			return ctx.SplitRun([]float64{1, 1}, []Task{sumTask(lo, mid), sumTask(mid, hi)})
		}
	}

	w, _ := runtime.NewWorld(8)
	if err := Run(w, sumTask(0, n)); err != nil {
		t.Fatal(err)
	}
	close(results)
	var got float64
	for s := range results {
		got += s
	}
	if got != want {
		t.Fatalf("recursive sum = %g, want %g", got, want)
	}
}

func TestSplitRunWeighted(t *testing.T) {
	w, _ := runtime.NewWorld(8)
	var bigSize, smallSize atomic.Int64
	err := Run(w, func(ctx *Ctx) error {
		return ctx.SplitRun([]float64{3, 1}, []Task{
			func(c *Ctx) error { bigSize.Store(int64(c.Comm.Size())); return nil },
			func(c *Ctx) error { smallSize.Store(int64(c.Comm.Size())); return nil },
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if bigSize.Load() != 6 || smallSize.Load() != 2 {
		t.Fatalf("weighted split sizes = %d, %d, want 6, 2", bigSize.Load(), smallSize.Load())
	}
}

func TestSplitRunErrorPropagation(t *testing.T) {
	w, _ := runtime.NewWorld(4)
	err := Run(w, func(ctx *Ctx) error {
		return ctx.SplitRun([]float64{1, 1}, []Task{
			func(c *Ctx) error { return nil },
			func(c *Ctx) error {
				if c.Comm.Rank() == 0 {
					return fmt.Errorf("boom")
				}
				return nil
			},
		})
	})
	if err == nil {
		t.Fatal("subtask error not propagated")
	}
}

func TestSplitRunArgMismatch(t *testing.T) {
	w, _ := runtime.NewWorld(2)
	err := Run(w, func(ctx *Ctx) error {
		return ctx.SplitRun([]float64{1}, []Task{
			func(c *Ctx) error { return nil },
			func(c *Ctx) error { return nil },
		})
	})
	if err == nil {
		t.Fatal("weight/task mismatch accepted")
	}
}

// Property (testing/quick): split sizes always sum to q with a floor of
// one core per subgroup.
func TestQuickSplitSizes(t *testing.T) {
	f := func(qRaw, gRaw uint8, w1, w2, w3 uint16) bool {
		g := int(gRaw%3) + 1
		q := g + int(qRaw%32)
		weights := []float64{float64(w1), float64(w2), float64(w3)}[:g]
		sizes, err := SplitSizes(q, weights)
		if err != nil {
			return false
		}
		sum := 0
		for _, s := range sizes {
			if s < 1 {
				return false
			}
			sum += s
		}
		return sum == q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// referenceSplitSizes is SplitSizes' own former rounding, kept as the
// oracle that delegating to core.ProportionalGroupSizes changed nothing.
func referenceSplitSizes(q int, weights []float64) []int {
	g := len(weights)
	var total float64
	for _, w := range weights {
		total += w
	}
	sizes := make([]int, g)
	if total == 0 {
		for i := range sizes {
			sizes[i] = q / g
			if i < q%g {
				sizes[i]++
			}
		}
		return sizes
	}
	type frac struct {
		i int
		f float64
	}
	fracs := make([]frac, g)
	sum := 0
	for i, w := range weights {
		exact := float64(q) * w / total
		sizes[i] = int(exact)
		if sizes[i] < 1 {
			sizes[i] = 1
		}
		fracs[i] = frac{i: i, f: exact - float64(int(exact))}
		sum += sizes[i]
	}
	sort.Slice(fracs, func(a, b int) bool {
		if fracs[a].f != fracs[b].f {
			return fracs[a].f > fracs[b].f
		}
		return fracs[a].i < fracs[b].i
	})
	for k := 0; sum < q; k = (k + 1) % g {
		sizes[fracs[k].i]++
		sum++
	}
	for k := g - 1; sum > q; k = (k - 1 + g) % g {
		if sizes[fracs[k].i] > 1 {
			sizes[fracs[k].i]--
			sum--
		}
	}
	return sizes
}

// TestSplitSizesMatchesReference compares SplitSizes with its former body
// over seeded random splits: zero, tiny, equal and skewed weights, and
// core counts from one per subgroup to many.
func TestSplitSizesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 5000; trial++ {
		g := 1 + rng.Intn(12)
		q := g + rng.Intn(4*g+64)
		weights := make([]float64, g)
		for i := range weights {
			switch rng.Intn(4) {
			case 0: // zero
			case 1:
				weights[i] = rng.Float64() * 1e-9
			case 2:
				weights[i] = float64(1 + rng.Intn(4))
			default:
				weights[i] = rng.ExpFloat64() * 100
			}
		}
		got, err := SplitSizes(q, weights)
		if want := referenceSplitSizes(q, weights); err != nil || !slices.Equal(got, want) {
			t.Fatalf("SplitSizes(%d, %v) = %v, %v; want %v", q, weights, got, err, want)
		}
	}
}
