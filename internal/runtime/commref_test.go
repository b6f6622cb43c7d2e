package runtime

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// This file keeps the pre-rewrite collective engine — central mutex/cond
// sense-reversing barrier, any-typed shared slots, two barrier rounds per
// collective — as a differential-testing reference, and property-tests
// that the dissemination-barrier engine produces bitwise-identical results
// on random inputs, both for the value-returning APIs and the *Into
// variants.

type refBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   int
}

func newRefBarrier(n int) *refBarrier {
	b := &refBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *refBarrier) wait() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

type refShared struct {
	bar   *refBarrier
	slots []any
}

type refComm struct {
	sh   *refShared
	rank int
}

func newRefWorld(n int) []*refComm {
	sh := &refShared{bar: newRefBarrier(n), slots: make([]any, n)}
	out := make([]*refComm, n)
	for i := range out {
		out[i] = &refComm{sh: sh, rank: i}
	}
	return out
}

func (c *refComm) bcast(root int, data []float64) []float64 {
	if len(c.sh.slots) == 1 {
		return data
	}
	if c.rank == root {
		c.sh.slots[root] = data
	}
	c.sh.bar.wait()
	src := c.sh.slots[root].([]float64)
	var out []float64
	if c.rank == root {
		out = data
	} else {
		out = make([]float64, len(src))
		copy(out, src)
	}
	c.sh.bar.wait()
	return out
}

func (c *refComm) allgather(contrib []float64) []float64 {
	if len(c.sh.slots) == 1 {
		out := make([]float64, len(contrib))
		copy(out, contrib)
		return out
	}
	c.sh.slots[c.rank] = contrib
	c.sh.bar.wait()
	total := 0
	for _, s := range c.sh.slots {
		total += len(s.([]float64))
	}
	out := make([]float64, 0, total)
	for _, s := range c.sh.slots {
		out = append(out, s.([]float64)...)
	}
	c.sh.bar.wait()
	return out
}

func (c *refComm) allreduceSum(v float64) float64 {
	if len(c.sh.slots) == 1 {
		return v
	}
	c.sh.slots[c.rank] = v
	c.sh.bar.wait()
	sum := 0.0
	for _, s := range c.sh.slots {
		sum += s.(float64)
	}
	c.sh.bar.wait()
	return sum
}

func (c *refComm) allreduceMax(v float64) float64 {
	if len(c.sh.slots) == 1 {
		return v
	}
	c.sh.slots[c.rank] = v
	c.sh.bar.wait()
	max := v
	for _, s := range c.sh.slots {
		if x := s.(float64); x > max {
			max = x
		}
	}
	c.sh.bar.wait()
	return max
}

// collOp is one step of a random SPMD collective script: the same script
// runs on both engines and the per-rank outputs are compared bitwise.
type collOp struct {
	kind int // 0 bcast, 1 allgather, 2 sum, 3 max
	root int
	data [][]float64 // per-rank contribution (scalar ops use data[r][0])
}

// randScript generates nops random collectives for p ranks.
func randScript(rng *rand.Rand, p, nops int) []collOp {
	ops := make([]collOp, nops)
	for o := range ops {
		op := collOp{kind: rng.Intn(4), root: rng.Intn(p)}
		vecLen := 1 + rng.Intn(17)
		op.data = make([][]float64, p)
		for r := range op.data {
			l := vecLen
			if op.kind == 1 { // allgather: variable per-rank lengths
				l = rng.Intn(9)
			}
			row := make([]float64, l)
			for i := range row {
				row[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
			op.data[r] = row
		}
		ops[o] = op
	}
	return ops
}

// runRef executes the script on the reference engine.
func runRef(p int, script []collOp) [][][]float64 {
	comms := newRefWorld(p)
	results := make([][][]float64, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := comms[r]
			for _, op := range script {
				in := append([]float64(nil), op.data[r]...)
				var out []float64
				switch op.kind {
				case 0:
					var arg []float64
					if r == op.root {
						arg = append([]float64(nil), op.data[op.root]...)
					}
					out = c.bcast(op.root, arg)
				case 1:
					out = c.allgather(in)
				case 2:
					out = []float64{c.allreduceSum(in[0])}
				case 3:
					out = []float64{c.allreduceMax(in[0])}
				}
				results[r] = append(results[r], append([]float64(nil), out...))
			}
		}(r)
	}
	wg.Wait()
	return results
}

// runNew executes the script on the dissemination-barrier engine. Each op
// runs through the value-returning API (recorded for comparison) and then
// through the matching *Into variant, which is checked bitwise against the
// value result on the spot.
func runNew(t *testing.T, p int, script []collOp) [][][]float64 {
	t.Helper()
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	results := make([][][]float64, p)
	intoBufs := make([][]float64, p) // reused dst across ops, per rank
	w.Run(func(c *Comm) {
		r := c.Rank()
		for oi, op := range script {
			in := append([]float64(nil), op.data[r]...)
			var out, into []float64
			switch op.kind {
			case 0:
				var arg []float64
				if r == op.root {
					arg = append([]float64(nil), op.data[op.root]...)
				}
				out = c.Bcast(op.root, arg)
				buf := append([]float64(nil), op.data[op.root]...)
				if r != op.root {
					for i := range buf {
						buf[i] = math.NaN() // must be fully overwritten
					}
				}
				c.BcastInto(op.root, buf)
				into = buf
			case 1:
				out = c.Allgather(in)
				intoBufs[r] = c.AllgatherInto(in, intoBufs[r])
				into = intoBufs[r]
			case 2:
				out = []float64{c.AllreduceSum(in[0])}
			case 3:
				out = []float64{c.AllreduceMax(in[0])}
			}
			if into != nil && !bitsEqual(out, into) {
				t.Errorf("op %d kind %d rank %d: *Into variant diverged from value API", oi, op.kind, r)
			}
			results[r] = append(results[r], append([]float64(nil), out...))
		}
	})
	return results
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPropertyCollectivesMatchReference proves the new engine bitwise
// identical to the pre-rewrite reference on random scripts, covering group
// sizes 1..8 (including the singleton fast paths) and all collectives.
func TestPropertyCollectivesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20240806))
	for trial := 0; trial < 40; trial++ {
		p := 1 + rng.Intn(8)
		script := randScript(rng, p, 4+rng.Intn(12))
		got := runNew(t, p, script)
		want := runRef(p, script)
		for r := 0; r < p; r++ {
			for o := range script {
				if !bitsEqual(got[r][o], want[r][o]) {
					t.Fatalf("trial %d p %d rank %d op %d (kind %d): engines diverged\n got %v\nwant %v",
						trial, p, r, o, script[o].kind, got[r][o], want[r][o])
				}
			}
		}
	}
}

// TestPropertyCollectivesWithAbort injects an abort at a random point of a
// random script: every collective that completed before the abort must
// still be bitwise identical to the reference, and every rank must
// eventually fail with an *AbortError (fault injection must not corrupt
// pre-fault results).
func TestPropertyCollectivesWithAbort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		p := 2 + rng.Intn(7)
		script := randScript(rng, p, 3+rng.Intn(10))
		abortAt := rng.Intn(len(script)) // op index at which one rank aborts
		aborter := rng.Intn(p)
		want := runRef(p, script)

		var stats Stats
		sh := newCommShared(Global, identityRanks(p), &stats, nil, barrierSpin())
		results := make([][][]float64, p)
		aborted := make([]bool, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				defer func() {
					if v := recover(); v != nil {
						if _, ok := v.(*AbortError); !ok {
							panic(v)
						}
						aborted[r] = true
					}
				}()
				c := &Comm{shared: sh, rank: r}
				for oi, op := range script {
					if oi == abortAt && r == aborter {
						c.Abort(ErrCommAborted)
						panic(&AbortError{Cause: ErrCommAborted})
					}
					in := append([]float64(nil), op.data[r]...)
					var out []float64
					switch op.kind {
					case 0:
						var arg []float64
						if r == op.root {
							arg = append([]float64(nil), op.data[op.root]...)
						}
						out = c.Bcast(op.root, arg)
					case 1:
						out = c.Allgather(in)
					case 2:
						out = []float64{c.AllreduceSum(in[0])}
					case 3:
						out = []float64{c.AllreduceMax(in[0])}
					}
					results[r] = append(results[r], out)
				}
			}(r)
		}
		wg.Wait()
		for r := 0; r < p; r++ {
			if !aborted[r] {
				t.Fatalf("trial %d: rank %d did not observe the abort", trial, r)
			}
			// No rank can get past the aborted collective: its barrier
			// needs the aborter's arrival. A rank may record fewer than
			// abortAt results (parked in an earlier barrier when the
			// poison landed), but the aborter itself completed every op
			// it attempted before aborting.
			if len(results[r]) > abortAt {
				t.Fatalf("trial %d: rank %d completed op %d past the abort point %d", trial, r, len(results[r]), abortAt)
			}
			if r == aborter && len(results[r]) != abortAt {
				t.Fatalf("trial %d: aborter recorded %d results, want %d", trial, len(results[r]), abortAt)
			}
			for o := range results[r] {
				if !bitsEqual(results[r][o], want[r][o]) {
					t.Fatalf("trial %d rank %d op %d: pre-abort result corrupted", trial, r, o)
				}
			}
		}
	}
}
