package plan

import (
	"math"

	"mtask/internal/arch"
	"mtask/internal/graph"
)

// Fingerprints identify a planning request for the schedule cache. They
// hash every input the combined scheduling and mapping result depends on:
// the complete graph structure (the graph name, every task's name and
// cost fields, edges with payloads, recursively including composed
// bodies) and the complete machine description (shape, core rate, link
// performance, hybrid parameters). Task Meta and the Members of contracted
// nodes are left out: no schedule reads them.
//
// Every fingerprint is built from one mixer step per 64-bit word. A step
// xors the word into the state, multiplies by an odd constant and folds
// the high half into the low half; for a fixed state it is a bijection of
// the word, and for a fixed word a bijection of the state. A graph task
// is hashed into a word of its own by such a chain and that word is mixed
// into the running state, so two inputs that differ in exactly one word
// never collide. Anything else collides with probability about 2^-64 —
// negligible for realistic cache sizes — and a collision can only ever
// serve a structurally valid schedule of a different request, never
// corrupt one. The constants are fixed, so fingerprints agree across
// processes and platforms.

const (
	fpSeed = 0x9e3779b97f4a7c15
	fpMul  = 0xbf58476d1ce4e5b9 // odd
)

func mix(h, x uint64) uint64 {
	h = (h ^ x) * fpMul
	return h ^ h>>32
}

// mixString mixes the length, then the bytes eight at a time
// (little-endian, the last word zero-padded).
func mixString(h uint64, s string) uint64 {
	h = mix(h, uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h = mix(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var w uint64
		for i := len(s) - 1; i >= 0; i-- {
			w = w<<8 | uint64(s[i])
		}
		h = mix(h, w)
	}
	return h
}

func mixFloat(h uint64, f float64) uint64 {
	return mix(h, math.Float64bits(f))
}

// mixCosts mixes the task fields the symbolic cost functions read, each
// as its own word.
func mixCosts(h uint64, t *graph.Task) uint64 {
	h = mix(h, uint64(t.Kind))
	h = mixFloat(h, t.Work)
	h = mix(h, uint64(t.CommBytes))
	h = mix(h, uint64(t.CommCount))
	h = mix(h, uint64(t.BcastBytes))
	h = mix(h, uint64(t.BcastCount))
	return mix(h, uint64(t.MaxWidth))
}

// edgeWord hashes one out-edge independently of the running state, so the
// edges of a source can be summed in any order. The third step is a
// finalizer that keeps the sum from inheriting the additive structure of
// neighbouring task ids.
func edgeWord(to graph.TaskID, bytes int) uint64 {
	return mix(mix(mix(fpSeed, uint64(to)), uint64(bytes)), fpSeed)
}

// GraphFingerprint returns a 64-bit fingerprint of an M-task graph
// covering its name, every task's name and cost-relevant fields
// (including the bodies of composed nodes, recursively) and every edge.
// It makes one pass over the tasks, handles each task's out-edges inside
// that pass and allocates nothing. Edge insertion order does not matter.
func GraphFingerprint(g *graph.Graph) uint64 {
	return graphFP(fpSeed, g, true)
}

// graphFP mixes g into h. names selects whether the graph and task names
// are part of the stream (LayerFingerprint mixes composed bodies without
// them).
func graphFP(h uint64, g *graph.Graph, names bool) uint64 {
	if names {
		h = mixString(h, g.Name)
	}
	h = mix(h, uint64(g.Len()))
	for id, t := range g.Tasks() {
		// Each task is hashed into a word of its own, independent of the
		// running state, so the processor overlaps consecutive tasks and
		// only one step per task is serial.
		w := uint64(fpSeed)
		if names {
			w = mixString(w, t.Name)
		}
		w = mixCosts(w, t)
		w = mix(w, uint64(t.OutBytes))
		out, bytes := g.OutEdges(graph.TaskID(id))
		var sum uint64
		for k, to := range out {
			sum += edgeWord(to, bytes[k])
		}
		// The out-degree and whether a composed body follows share a word.
		var sub uint64
		if t.Sub != nil {
			sub = 1
		}
		w = mix(w, uint64(len(out))<<1|sub)
		h = mix(h, mix(w, sum))
		if t.Sub != nil {
			h = graphFP(h, t.Sub, names)
		}
	}
	return h
}

// LayerFingerprint returns a 64-bit fingerprint of one layer of a
// (contracted) graph covering exactly the inputs the layer's group-count
// search depends on: the layer width and, per task in layer order, every
// task field the symbolic cost functions read (plus composed bodies).
// OutBytes is deliberately excluded — it prices edges, which the layer
// search never sees — so a chain exit whose payload changed still
// fingerprints equal and its layer schedule can be reused. Names are
// excluded too: layer schedules are reused by position. Together with an
// equal family key (machine, strategy, P, model, scheduler knobs) an equal
// layer fingerprint implies Algorithm 1 produces positionally identical
// layer schedules.
func LayerFingerprint(g *graph.Graph, layer graph.Layer) uint64 {
	h := mix(fpSeed, uint64(len(layer)))
	for _, id := range layer {
		t := g.Task(id)
		h = mixCosts(h, t)
		if t.Sub != nil {
			h = graphFP(mix(h, 1), t.Sub, false)
		} else {
			h = mix(h, 0)
		}
	}
	return h
}

// MachineFingerprint returns a 64-bit fingerprint of a machine
// description covering its name, shape, core rate, per-level link
// performance and hybrid execution parameters.
func MachineFingerprint(m *arch.Machine) uint64 {
	h := mixString(fpSeed, m.Name)
	h = mix(h, uint64(m.Nodes))
	h = mix(h, uint64(m.ProcsPerNode))
	h = mix(h, uint64(m.CoresPerProc))
	h = mixFloat(h, m.CoreGFlops)
	for l := arch.LevelProcessor; l <= arch.LevelNetwork; l++ {
		h = mixFloat(h, m.Links[l].Latency)
		h = mixFloat(h, m.Links[l].Bandwidth)
	}
	h = mixFloat(h, m.HybridForkJoin)
	var shared uint64
	if m.SharedMemoryThreads {
		shared = 1
	}
	return mix(h, shared)
}
