package graph_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"mtask/internal/graph"
	"mtask/internal/ode"
	"mtask/internal/plan"
)

// fpCase is one graph of the fingerprint golden table.
type fpCase struct {
	name string
	g    *graph.Graph
}

// randomBuiltDAG builds a random DAG through AddTask/AddEdge: every cost
// field set, duplicate edges in shuffled arrival order, reads between the
// mutations, sometimes a composed body and sometimes start/stop markers
// added after the graph was read.
func randomBuiltDAG(rng *rand.Rand, depth int) *graph.Graph {
	g := graph.New(fmt.Sprintf("dag%d", rng.Intn(1000)))
	n := 2 + rng.Intn(30)
	for i := 0; i < n; i++ {
		t := &graph.Task{
			Name:       fmt.Sprintf("t%d", i),
			Work:       float64(rng.Intn(1000)),
			CommBytes:  rng.Intn(1 << 16),
			CommCount:  rng.Intn(4),
			BcastBytes: rng.Intn(1 << 16),
			BcastCount: rng.Intn(4),
			OutBytes:   rng.Intn(1 << 16),
			MaxWidth:   rng.Intn(16),
		}
		if depth > 0 && rng.Intn(8) == 0 {
			t.Kind = graph.KindComposed
			t.Sub = randomBuiltDAG(rng, depth-1)
		}
		g.AddTask(t)
	}
	var edges []graph.Edge
	for from := 0; from < n; from++ {
		for to := from + 1; to < n; to++ {
			for rng.Intn(4) == 0 {
				edges = append(edges, graph.Edge{From: graph.TaskID(from), To: graph.TaskID(to), Bytes: rng.Intn(3) * rng.Intn(1<<12)})
			}
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, e := range edges {
		g.MustEdge(e.From, e.To, e.Bytes)
		if rng.Intn(16) == 0 {
			_ = g.Succ(graph.TaskID(rng.Intn(g.Len())))
		}
	}
	if rng.Intn(3) == 0 {
		g.AddStartStop()
	}
	return g
}

// fingerprintCases are the graphs of the golden table: the five solver
// graphs, the 100k-task scaled graph, the FuzzGraphJSON corpus (seeds and
// committed files) that decodes, and 50 seeded random DAGs.
func fingerprintCases(t *testing.T) []fpCase {
	t.Helper()
	var cases []fpCase
	for _, g := range solverGraphs() {
		cases = append(cases, fpCase{g.Name, g})
	}
	cases = append(cases, fpCase{"scaled-100k", ode.ScaledSolverGraph(100_000)})
	for i, src := range decoderCases {
		var g graph.Graph
		if g.UnmarshalJSON([]byte(src)) == nil {
			cases = append(cases, fpCase{fmt.Sprintf("decoder-case-%d", i), &g})
		}
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzGraphJSON")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is the header line and one []byte("...") line.
		_, line, _ := bytes.Cut(raw, []byte("\n"))
		line = bytes.TrimSpace(line)
		data, err := strconv.Unquote(string(bytes.TrimSuffix(bytes.TrimPrefix(line, []byte("[]byte(")), []byte(")"))))
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		var g graph.Graph
		if g.UnmarshalJSON([]byte(data)) == nil {
			cases = append(cases, fpCase{"corpus-" + f.Name(), &g})
		}
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 50; i++ {
		cases = append(cases, fpCase{fmt.Sprintf("random-%d", i), randomBuiltDAG(rng, 1)})
	}
	return cases
}

// fingerprints returns a case's GraphFingerprint, the fingerprint of its
// chain-contracted graph, and a digest of the LayerFingerprint of every
// layer of the contracted graph in layer order.
func fingerprints(g *graph.Graph) [3]uint64 {
	c := graph.ContractChains(g).Graph
	layers := graph.Layers(c)
	digest := uint64(len(layers))
	for _, l := range layers {
		digest = (digest ^ plan.LayerFingerprint(c, l)) * 0x100000001b3
	}
	return [3]uint64{plan.GraphFingerprint(g), plan.GraphFingerprint(c), digest}
}

// goldenFingerprints were computed by fingerprints on the edge-map
// implementation of the graph (per-edge map insert on AddEdge), before the
// adjacency became one pending edge list built into rows on first read.
// The planner's cache keys and layer reuse depend on these values staying
// put.
var goldenFingerprints = map[string][3]uint64{
	"EPOL(R=8,n=4000)":      {0x3ac9f24767fe8a97, 0x2e0fddf4ae5c2493, 0x6a000a5b58e0d5cc},
	"IRK(K=4,m=2,n=4000)":   {0x6fcc9d8ab0cff55e, 0xfbb4872d5e48aea9, 0x2808dba2868605e1},
	"DIIRK(K=4,I=2,n=4000)": {0x8fc9b9f84a23cc84, 0xea8b89bd17e966c3, 0xaa7ad21368be2bee},
	"PAB(K=8,m=0,n=4000)":   {0x114f6d5ce1018ca9, 0x114f6d5ce1018ca9, 0xe515dcd887d72b9e},
	"PABM(K=8,m=2,n=4000)":  {0x3d8544666006bd1d, 0x3d8544666006bd1d, 0x79d7984dde327628},
	"scaled-100k":           {0xa580b5cf716c5f5c, 0xda8435ede7ddf3e3, 0x2e3637e7021c478f},
	"decoder-case-0":        {0xcab0e252ae2755df, 0xcab0e252ae2755df, 0x9873b98491b68a0f},
	"decoder-case-1":        {0x393f2eb1ab73e701, 0x393f2eb1ab73e701, 0x880affee3d6f2e9c},
	"decoder-case-2":        {0x801f7fcf43eb02bf, 0x56a6171626210c77, 0x0000000000000000},
	"decoder-case-8":        {0x63b51874dd77fb85, 0x63b51874dd77fb85, 0x8b083c7ff9c175b0},
	"decoder-case-9":        {0xcb8e64f603d58859, 0xcb8e64f603d58859, 0xbf6cf1397627cd4c},
	"decoder-case-13":       {0x2c2c71e802b83e04, 0x2c2c71e802b83e04, 0x9c81a3c2e85ea3ae},
	"decoder-case-15":       {0xd7ffd8a3fa26cac2, 0xd7ffd8a3fa26cac2, 0x0000000000000000},
	"corpus-solver-diirk":   {0x8fc9b9f84a23cc84, 0xea8b89bd17e966c3, 0xaa7ad21368be2bee},
	"corpus-solver-epol":    {0x3ac9f24767fe8a97, 0x2e0fddf4ae5c2493, 0x6a000a5b58e0d5cc},
	"corpus-solver-irk":     {0x6fcc9d8ab0cff55e, 0xfbb4872d5e48aea9, 0x2808dba2868605e1},
	"corpus-solver-pab":     {0x114f6d5ce1018ca9, 0x114f6d5ce1018ca9, 0xe515dcd887d72b9e},
	"corpus-solver-pabm":    {0x3d8544666006bd1d, 0x3d8544666006bd1d, 0x79d7984dde327628},
	"random-0":              {0xa19425927a63fc3f, 0xa19425927a63fc3f, 0x2a57a2ce87200b58},
	"random-1":              {0xc0a4547d1be1c503, 0xc0a4547d1be1c503, 0xe50344419dcd4143},
	"random-2":              {0x73827b0beaa5abc5, 0x73827b0beaa5abc5, 0x8f3b2d46cabaf2b1},
	"random-3":              {0xe7df4d207615907b, 0xe7df4d207615907b, 0x16a8883c226fb990},
	"random-4":              {0x6c9b3d23b179a137, 0x6c9b3d23b179a137, 0x694aa859a275ddee},
	"random-5":              {0xcbd62b26fd023609, 0xcbd62b26fd023609, 0x48aa02d7c528e18d},
	"random-6":              {0x13c0bf69a30eed2c, 0x13c0bf69a30eed2c, 0x25cc280095e5df04},
	"random-7":              {0xef74ecb8c5460abc, 0xef74ecb8c5460abc, 0xb517d2791dfd0b87},
	"random-8":              {0x46c38c6dd061d909, 0x46c38c6dd061d909, 0xf88e72d676bb62b0},
	"random-9":              {0xf6b961b615a82dd5, 0xf6b961b615a82dd5, 0xc41bf433afb9f742},
	"random-10":             {0xfaf29a5d7c2629bb, 0xfaf29a5d7c2629bb, 0x91c7a4c0b708effd},
	"random-11":             {0x6030e2ab82914464, 0x7b091e632a03e349, 0xf21c71b8d7a0425d},
	"random-12":             {0x6fa9d8c56f3be244, 0x6fa9d8c56f3be244, 0x91fc61a771e57c80},
	"random-13":             {0x3b64eea0089fa28e, 0x3b64eea0089fa28e, 0x998563f955cfea25},
	"random-14":             {0x9e2f00edd3dc67ac, 0x9e2f00edd3dc67ac, 0xe6672625ff1167a4},
	"random-15":             {0x625ff4e1204a3a00, 0x625ff4e1204a3a00, 0xd2107a4f9fbef73c},
	"random-16":             {0xb539d8cdf8921ecd, 0xb539d8cdf8921ecd, 0xe04aaff7895dcb56},
	"random-17":             {0x9ae6b6c8d3d22b87, 0xf6f19cebf6b1156b, 0xd39621c25c816e9f},
	"random-18":             {0x0e5ee7e6f2d929d1, 0x0e5ee7e6f2d929d1, 0x0e1b53323a43a488},
	"random-19":             {0xffb03b54cffc1a8e, 0xffb03b54cffc1a8e, 0x98a5bcc7fefd1cda},
	"random-20":             {0x7147be26a6b7c397, 0x9e7c6ba5352765f9, 0xf09bbc421cd68d0e},
	"random-21":             {0xc480def4ad71739d, 0xc480def4ad71739d, 0xa7f83f7741070fd2},
	"random-22":             {0xfe5d7239e45eec64, 0xfe5d7239e45eec64, 0x0a7a9e61193fdea2},
	"random-23":             {0x42705466ea1f9dab, 0x42705466ea1f9dab, 0x4a3bc9d72b53f234},
	"random-24":             {0xd919622a87554ba5, 0xd919622a87554ba5, 0x67a5cb3aa7af4b09},
	"random-25":             {0x4dbc5873c2a069a9, 0xeee752ba3e34fa1c, 0xf1a05832e9326d0a},
	"random-26":             {0x59664470820b8701, 0x59664470820b8701, 0x0c9ad1211ccbccbc},
	"random-27":             {0x02494e76a8641526, 0xe0d998fc99d278e4, 0xa2b238833c572f8c},
	"random-28":             {0xc347acc6e96fb5c3, 0xc347acc6e96fb5c3, 0xe5bd1823101044ba},
	"random-29":             {0x7a6344be5e284389, 0x91165680a55400b1, 0x18523285fdb586b6},
	"random-30":             {0xc782dff44657dc72, 0xc782dff44657dc72, 0xfa2348a0ece81ab6},
	"random-31":             {0xc68fe305e0a97af1, 0xc68fe305e0a97af1, 0xab420575da37cc4b},
	"random-32":             {0x84cf02ecd0c23b8d, 0x84cf02ecd0c23b8d, 0xf50bc3538f56ecbb},
	"random-33":             {0x8d24916c97fa062b, 0x8d24916c97fa062b, 0x8bbb9226081a69fc},
	"random-34":             {0x881b8ce0959e9156, 0x881b8ce0959e9156, 0xf3385063ff01be78},
	"random-35":             {0xc3d10cd0fb34f24b, 0xc3d10cd0fb34f24b, 0x23da4a765bcfa536},
	"random-36":             {0x7aa9e9a82f87b81a, 0x55d93fe0786709c9, 0x2f69106cf7853886},
	"random-37":             {0x0358cab400618291, 0x0358cab400618291, 0xaf4d4154531c963a},
	"random-38":             {0x5c99f296cfa6e69a, 0x5c99f296cfa6e69a, 0xe8c4662dac528870},
	"random-39":             {0x99dcd6de9d188595, 0x99dcd6de9d188595, 0xa487f217be73f967},
	"random-40":             {0x66064cefa489591a, 0x66064cefa489591a, 0x270f328aec03d217},
	"random-41":             {0x2fba440d9f85325e, 0x2fba440d9f85325e, 0x1179290d8aca96b2},
	"random-42":             {0xb08f8e6b78efcd53, 0xb08f8e6b78efcd53, 0xae09c0240f83fa2c},
	"random-43":             {0xfea90d868c8f2cb2, 0xfea90d868c8f2cb2, 0xceaf6337cb6fda81},
	"random-44":             {0xcd2ceb5d84deac8f, 0xcd2ceb5d84deac8f, 0xe76e9110c6bbfdd6},
	"random-45":             {0xc79ea1cfcf33e372, 0xc79ea1cfcf33e372, 0xed0a56ea182f23a0},
	"random-46":             {0x95a89ebbb9f84ace, 0x95a89ebbb9f84ace, 0x3de39ab4ce9e81a9},
	"random-47":             {0xa28d6e96e9ac9d04, 0xa28d6e96e9ac9d04, 0xd2f20392632263ac},
	"random-48":             {0xffa4a1124aa64800, 0xffa4a1124aa64800, 0xf0f2fe644cddac2b},
	"random-49":             {0xb71235a54b4a96fb, 0xb71235a54b4a96fb, 0xb471db2819f94092},
}

func TestFingerprintsMatchGolden(t *testing.T) {
	cases := fingerprintCases(t)
	if len(cases) != len(goldenFingerprints) {
		t.Fatalf("%d cases, %d golden entries", len(cases), len(goldenFingerprints))
	}
	for _, c := range cases {
		want, ok := goldenFingerprints[c.name]
		if !ok {
			t.Fatalf("%s: no golden entry", c.name)
		}
		if got := fingerprints(c.g); got != want {
			t.Errorf("%s: fingerprints %#016x, want %#016x", c.name, got, want)
		}
	}
}
