package spec

import (
	"os"
	"strings"
	"testing"
)

// rawStrings returns the raw string literals of a Go source file: in the
// files seeding FuzzSpecCompile those are exactly the specification
// programs they compile.
func rawStrings(t testing.TB, path string) []string {
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	parts := strings.Split(string(src), "`")
	var out []string
	for i := 1; i < len(parts); i += 2 {
		out = append(out, parts[i])
	}
	return out
}

// FuzzSpecCompile checks that the compiler never panics and always
// finishes, whatever the source: every input either compiles to a valid
// graph or is rejected with an error.
func FuzzSpecCompile(f *testing.F) {
	seeds := append(rawStrings(f, "spec_test.go"), rawStrings(f, "../../examples/speclang/main.go")...)
	epol, err := os.ReadFile("../../testdata/epol.cm")
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range append(seeds, string(epol)) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		u, err := Compile(src)
		if err != nil {
			return
		}
		if err := u.Graph.Validate(); err != nil {
			t.Fatalf("compiled graph is invalid: %v", err)
		}
	})
}

func TestCompileUnrollCap(t *testing.T) {
	// Counting loops unroll eagerly: a bound that would take forever must
	// be an error, not a hang, and a bound outside the int range must not
	// go through Go's implementation-defined float-to-int conversion.
	for hi, want := range map[string]string{
		"400":                 "unrolls to more than", // 400 + 400² steps
		"1e12":                "unrolls to more than",
		"9.2e18":              "unrolls to more than",
		"9223372036854775807": "out of the integer range",
		"1e300":               "out of the integer range",
	} {
		src := `task t(x:int:in) work 1; cmmain M(y:vector:in) { var i, j : int; for (i = 1:` + hi +
			`) { for (j = 1:` + hi + `) { t(j); } } }`
		if _, err := Compile(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("hi = %s: want an error containing %q, got %v", hi, want, err)
		}
	}
}
