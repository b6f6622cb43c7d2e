package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"unicode/utf8"

	"mtask/internal/arch"
	"mtask/internal/core"
	"mtask/internal/plan"
)

// A /v1/plan reply is a PlanResponse in two parts. Everything through
// "placements" is a pure function of the mapping — the plan the schedule
// cache already holds — and is rendered once per cached mapping; the flags
// after it say how this one request was served. Both parts are written
// byte for byte as json.Encoder writes a PlanResponse (the tests keep that
// encoder as the reference), so a client cannot tell a memoized reply from
// an encoded one.

// writePlanReply answers a planned /v1/plan request. Replies served from
// the schedule cache (or the degraded path's fallback store) take their
// prefix from the rendered-reply memo, keyed by the mapping the planner
// returned, and fill it on a miss; cold, incremental and coalesced replies
// render theirs and retain nothing, so a mapping that is never asked for
// twice costs the memo nothing.
func (s *Server) writePlanReply(w http.ResponseWriter, mp *core.Mapping, info plan.Info) {
	memoized := info.CacheHit || info.Degraded
	var prefix []byte
	hit := false
	if memoized {
		prefix, hit = s.rendered.Get(mp)
	}
	if !hit {
		var err error
		if prefix, err = renderPlanPrefix(mp); err != nil {
			s.writePlanError(w, err)
			return
		}
		if memoized {
			s.rendered.Put(mp, prefix)
		}
	}
	var tail [160]byte
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// The status line is already out; a failed write has nothing to recover.
	_, _ = w.Write(prefix)
	_, _ = w.Write(appendPlanTail(tail[:0], info))
}

// renderPlanPrefix renders a PlanResponse from its opening brace through
// the placements array. The fingerprints are those of the mapping's own
// graph and machine, so the memoized prefix carries them and a cache hit
// fingerprints its request once, for the cache key.
func renderPlanPrefix(mp *core.Mapping) ([]byte, error) {
	s := mp.Schedule
	makespan, err := json.Marshal(s.Time)
	if err != nil {
		return nil, fmt.Errorf("encoding the plan of %q: %w", s.Source.Name, err)
	}
	size := 512
	for li, layer := range s.Layers {
		for gi, tasks := range layer.Groups {
			size += len(tasks) * (48 + 10*len(mp.Cores[li][gi]))
		}
	}

	b := make([]byte, 0, size)
	b = appendJSONString(append(b, `{"graph":`...), s.Source.Name)
	b = appendJSONString(append(b, `,"machine":`...), mp.Machine.Name)
	b = fmt.Appendf(b, `,"graph_fingerprint":"%016x","machine_fingerprint":"%016x"`,
		plan.GraphFingerprint(s.Source), plan.MachineFingerprint(mp.Machine))
	b = appendJSONString(append(b, `,"strategy":`...), mp.Strategy.Name())
	b = strconv.AppendInt(append(b, `,"cores":`...), int64(s.P), 10)
	b = strconv.AppendInt(append(b, `,"layers":`...), int64(len(s.Layers)), 10)
	b = append(b, `,"layer_groups":[`...)
	for li, layer := range s.Layers {
		if li > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(layer.NumGroups()), 10)
	}
	b = append(append(b, `],"makespan":`...), makespan...)

	b = append(b, `,"placements":`...)
	labels := newLabelTable(mp.Machine)
	var where []byte // what every task of one group shares: layer, group, cores
	placed := false
	for li, layer := range s.Layers {
		for gi, tasks := range layer.Groups {
			if len(tasks) == 0 {
				continue
			}
			where = strconv.AppendInt(append(where[:0], `,"layer":`...), int64(li), 10)
			where = strconv.AppendInt(append(where, `,"group":`...), int64(gi), 10)
			where = append(where, `,"cores":[`...)
			for ci, c := range mp.Cores[li][gi] {
				if ci > 0 {
					where = append(where, ',')
				}
				where = labels.appendQuoted(where, c)
			}
			where = append(where, `]}`...)
			for _, id := range tasks {
				if placed {
					b = append(b, ',')
				} else {
					b = append(b, '[')
					placed = true
				}
				b = appendJSONString(append(b, `{"task":`...), s.Graph.Task(id).Name)
				b = append(b, where...)
			}
		}
	}
	if !placed {
		return append(b, `null`...), nil
	}
	return append(b, ']'), nil
}

// appendPlanTail appends the per-request end of a PlanResponse — the
// fields from "cached" on, the closing brace and json.Encoder's newline.
func appendPlanTail(b []byte, info plan.Info) []byte {
	b = strconv.AppendBool(append(b, `,"cached":`...), info.CacheHit)
	b = strconv.AppendBool(append(b, `,"coalesced":`...), info.Coalesced)
	if info.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if info.Incremental {
		b = append(b, `,"incremental":true`...)
	}
	if info.ReusedLayers != 0 {
		b = strconv.AppendInt(append(b, `,"reused_layers":`...), int64(info.ReusedLayers), 10)
	}
	if info.PatchedLayers != 0 {
		b = strconv.AppendInt(append(b, `,"patched_layers":`...), int64(info.PatchedLayers), 10)
	}
	return append(b, "}\n"...)
}

// appendJSONString appends s as encoding/json quotes it. Strings of plain
// ASCII that json copies through unescaped are copied here too; anything
// else (control characters, quotes, the HTML-sensitive <, >, &, non-ASCII
// and invalid UTF-8) goes through json itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= utf8.RuneSelf, c == '"', c == '\\', c == '<', c == '>', c == '&':
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(b, quoted...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// labelTable holds one reply's quoted nid.pid.cid core labels, built on
// first use and indexed by Machine.Rank: a reply names every core once per
// layer, so it builds at most P labels and copies the rest. The table is
// as long as the machine, which the mapping's own core sequence already
// is.
type labelTable struct {
	m    *arch.Machine
	span [][2]int // per rank, the label's [lo, hi) in text; hi 0 = not built
	text []byte
}

func newLabelTable(m *arch.Machine) *labelTable {
	n := m.TotalCores()
	return &labelTable{m: m, span: make([][2]int, n), text: make([]byte, 0, 12*n)}
}

func (t *labelTable) appendQuoted(b []byte, c arch.CoreID) []byte {
	if !t.m.Contains(c) { // no rank to index by
		return append(c.AppendLabel(append(b, '"')), '"')
	}
	sp := &t.span[t.m.Rank(c)]
	if sp[1] == 0 {
		sp[0] = len(t.text)
		t.text = append(c.AppendLabel(append(t.text, '"')), '"')
		sp[1] = len(t.text)
	}
	return append(b, t.text[sp[0]:sp[1]]...)
}
