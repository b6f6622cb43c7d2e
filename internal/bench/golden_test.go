package bench

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// paperScaleSections splits results/paper_scale.txt (the output of
// `mtaskbench -exp all`) into the text each experiment printed, keyed by
// experiment id, without the "[<id> completed in ...]" timing lines.
func paperScaleSections(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../../results/paper_scale.txt")
	if err != nil {
		t.Fatal(err)
	}
	marker := regexp.MustCompile(`(?m)^\[(\S+) completed in [^\]\n]*\]\n\n`)
	sections := map[string]string{}
	rest := string(data)
	for {
		loc := marker.FindStringSubmatchIndex(rest)
		if loc == nil {
			break
		}
		sections[rest[loc[2]:loc[3]]] = rest[:loc[0]]
		rest = rest[loc[1]:]
	}
	if rest != "" {
		t.Fatalf("results/paper_scale.txt: trailing text after the last timing line:\n%s", rest)
	}
	return sections
}

// TestPaperScaleGolden regenerates the fast paper-scale experiments and
// compares them byte for byte with results/paper_scale.txt. fig13 and
// fig17 take tens of seconds; CI's paper-goldens job diffs the full
// `mtaskbench -exp all` output instead.
func TestPaperScaleGolden(t *testing.T) {
	sections := paperScaleSections(t)
	for _, id := range ExperimentIDs() {
		if _, ok := sections[id]; !ok {
			t.Errorf("results/paper_scale.txt has no section for experiment %q", id)
		}
	}
	for _, id := range []string{"ablation", "fig14", "fig15", "fig16", "fig18", "fig19", "table1"} {
		tables, err := Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var got strings.Builder
		for _, tab := range tables {
			got.WriteString(tab.Format())
			got.WriteString("\n")
		}
		if want := sections[id]; got.String() != want {
			gl, wl := strings.Split(got.String(), "\n"), strings.Split(want, "\n")
			for i := 0; i < len(gl) || i < len(wl); i++ {
				var g, w string
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Errorf("%s diverges from results/paper_scale.txt at line %d of its section:\n got: %q\nwant: %q", id, i+1, g, w)
					break
				}
			}
		}
	}
}
