package graph

import (
	"fmt"
	"io"
	"strings"
)

// WriteDOT writes the graph in Graphviz DOT format: basic tasks as boxes
// annotated with their work, composed nodes as double octagons, start/stop
// markers as circles, and edges labelled with their re-distribution
// payload. Composed nodes' body graphs are rendered as clusters.
func (g *Graph) WriteDOT(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [fontsize=10];\n", g.Name)
	g.writeDOTBody(&b, "")
	fmt.Fprintln(&b, "}")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeDOTBody emits nodes and edges with the given id prefix (used for
// cluster nesting).
func (g *Graph) writeDOTBody(b *strings.Builder, prefix string) {
	for _, t := range g.tasks {
		id := fmt.Sprintf("%sn%d", prefix, t.ID)
		switch t.Kind {
		case KindStart, KindStop:
			fmt.Fprintf(b, "  %s [label=%q shape=circle];\n", id, t.Name)
		case KindComposed:
			fmt.Fprintf(b, "  %s [label=%q shape=doubleoctagon];\n", id, t.Name)
			if t.Sub != nil {
				sub := fmt.Sprintf("%ss%d_", prefix, t.ID)
				fmt.Fprintf(b, "  subgraph cluster_%s {\n    label=%q;\n", strings.TrimSuffix(sub, "_"), t.Sub.Name)
				t.Sub.writeDOTBody(b, sub)
				fmt.Fprintln(b, "  }")
				// Tie the composed node to its body entry.
				fmt.Fprintf(b, "  %s -> %sn0 [style=dashed arrowhead=none];\n", id, sub)
			}
		default:
			fmt.Fprintf(b, "  %s [label=\"%s\\nwork=%.3g\" shape=box];\n", id, escapeDOT(t.Name), t.Work)
		}
	}
	for _, e := range g.Edges() {
		label := ""
		if bytes := g.Payload(e.From, e.Bytes); bytes > 0 {
			label = fmt.Sprintf(" [label=\"%dB\" fontsize=8]", bytes)
		}
		fmt.Fprintf(b, "  %sn%d -> %sn%d%s;\n", prefix, e.From, prefix, e.To, label)
	}
}

func escapeDOT(s string) string {
	return strings.ReplaceAll(s, `"`, `\"`)
}
