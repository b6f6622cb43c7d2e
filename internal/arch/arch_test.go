package arch

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testMachine() *Machine {
	return &Machine{
		Name:         "test",
		Nodes:        4,
		ProcsPerNode: 2,
		CoresPerProc: 2,
		CoreGFlops:   1,
		Links: [NumLevels]LinkPerf{
			LevelProcessor: {Latency: 1e-7, Bandwidth: 4e9},
			LevelNode:      {Latency: 2e-7, Bandwidth: 2e9},
			LevelNetwork:   {Latency: 1e-6, Bandwidth: 1e9},
		},
	}
}

func TestTotalCores(t *testing.T) {
	m := testMachine()
	if got := m.TotalCores(); got != 16 {
		t.Fatalf("TotalCores = %d, want 16", got)
	}
	if got := m.CoresPerNode(); got != 4 {
		t.Fatalf("CoresPerNode = %d, want 4", got)
	}
}

func TestValidate(t *testing.T) {
	m := testMachine()
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	bad := *m
	bad.Nodes = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted zero nodes")
	}
	bad = *m
	bad.CoreGFlops = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted zero core rate")
	}
	bad = *m
	bad.Links[LevelNetwork].Bandwidth = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted zero bandwidth")
	}
}

func TestRankRoundTrip(t *testing.T) {
	m := testMachine()
	for r := 0; r < m.TotalCores(); r++ {
		c := m.CoreByRank(r)
		if !m.Contains(c) {
			t.Fatalf("CoreByRank(%d) = %v outside machine", r, c)
		}
		if got := m.Rank(c); got != r {
			t.Fatalf("Rank(CoreByRank(%d)) = %d", r, got)
		}
	}
}

func TestAllCoresOrder(t *testing.T) {
	m := testMachine()
	cores := m.AllCores()
	if len(cores) != m.TotalCores() {
		t.Fatalf("AllCores returned %d cores, want %d", len(cores), m.TotalCores())
	}
	for i, c := range cores {
		if m.Rank(c) != i {
			t.Fatalf("AllCores[%d] = %v has rank %d", i, c, m.Rank(c))
		}
	}
}

// TestCoreIDStringMatchesSprintf pins the fmt-free String against the
// Sprintf form it replaced, over a whole machine and the int extremes.
func TestCoreIDStringMatchesSprintf(t *testing.T) {
	cores := append(CHiC().AllCores(),
		CoreID{-5, -1, -2}, CoreID{math.MaxInt - 1, math.MaxInt32, 0}, CoreID{math.MinInt, 0, 123456789})
	for _, c := range cores {
		want := fmt.Sprintf("%d.%d.%d", c.Node+1, c.Proc+1, c.Core+1)
		if got := c.String(); got != want {
			t.Fatalf("%#v: String = %q, want %q", c, got, want)
		}
		if got := string(c.AppendLabel([]byte("x"))); got != "x"+want {
			t.Fatalf("%#v: AppendLabel = %q, want %q", c, got, "x"+want)
		}
	}
}

func TestCommLevel(t *testing.T) {
	tests := []struct {
		a, b CoreID
		want Level
	}{
		{CoreID{0, 0, 0}, CoreID{0, 0, 0}, LevelCore},
		{CoreID{0, 0, 0}, CoreID{0, 0, 1}, LevelProcessor},
		{CoreID{0, 0, 0}, CoreID{0, 1, 0}, LevelNode},
		{CoreID{0, 0, 0}, CoreID{1, 0, 0}, LevelNetwork},
		{CoreID{2, 1, 1}, CoreID{2, 1, 0}, LevelProcessor},
	}
	for _, tt := range tests {
		if got := CommLevel(tt.a, tt.b); got != tt.want {
			t.Errorf("CommLevel(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
		if got := CommLevel(tt.b, tt.a); got != tt.want {
			t.Errorf("CommLevel(%v,%v) = %v, want %v (symmetry)", tt.b, tt.a, got, tt.want)
		}
	}
}

func TestTransferMonotoneInLevel(t *testing.T) {
	m := testMachine()
	n := 1 << 16
	sameProc := m.Transfer(CoreID{0, 0, 0}, CoreID{0, 0, 1}, n)
	sameNode := m.Transfer(CoreID{0, 0, 0}, CoreID{0, 1, 0}, n)
	network := m.Transfer(CoreID{0, 0, 0}, CoreID{1, 0, 0}, n)
	if !(sameProc < sameNode && sameNode < network) {
		t.Fatalf("transfer times not ordered by level: %g %g %g", sameProc, sameNode, network)
	}
	if self := m.Transfer(CoreID{0, 0, 0}, CoreID{0, 0, 0}, n); self > 1e-9 {
		t.Fatalf("self transfer not ~free: %g", self)
	}
}

func TestSlowestLevel(t *testing.T) {
	tests := []struct {
		cores []CoreID
		want  Level
	}{
		{nil, LevelCore},
		{[]CoreID{{0, 0, 0}}, LevelCore},
		{[]CoreID{{0, 0, 0}, {0, 0, 1}}, LevelProcessor},
		{[]CoreID{{0, 0, 0}, {0, 0, 1}, {0, 1, 0}}, LevelNode},
		{[]CoreID{{0, 0, 0}, {1, 0, 0}}, LevelNetwork},
		{[]CoreID{{0, 0, 0}, {0, 1, 1}, {3, 0, 0}}, LevelNetwork},
	}
	for _, tt := range tests {
		if got := SlowestLevel(tt.cores); got != tt.want {
			t.Errorf("SlowestLevel(%v) = %v, want %v", tt.cores, got, tt.want)
		}
	}
}

func TestNodesSpanned(t *testing.T) {
	cores := []CoreID{{0, 0, 0}, {0, 1, 1}, {2, 0, 0}, {2, 0, 1}}
	if got := NodesSpanned(cores); got != 2 {
		t.Fatalf("NodesSpanned = %d, want 2", got)
	}
	if got := NodesSpanned(nil); got != 0 {
		t.Fatalf("NodesSpanned(nil) = %d, want 0", got)
	}
}

func TestSubset(t *testing.T) {
	m := CHiC()
	s := m.Subset(8)
	if s.TotalCores() != 32 {
		t.Fatalf("subset cores = %d, want 32", s.TotalCores())
	}
	if s.Links != m.Links || s.CoreGFlops != m.CoreGFlops {
		t.Fatal("subset changed performance parameters")
	}
	sc := m.SubsetCores(256)
	if sc.Nodes != 64 {
		t.Fatalf("SubsetCores(256).Nodes = %d, want 64", sc.Nodes)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Subset(0) did not panic")
		}
	}()
	m.Subset(0)
}

func TestPartition(t *testing.T) {
	m := CHiC()
	p, err := m.Partition(8)
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes != 8 || p.TotalCores() != 32 {
		t.Fatalf("partition shape %d nodes / %d cores, want 8/32", p.Nodes, p.TotalCores())
	}
	// Equal-sized partitions must be indistinguishable (the schedule
	// cache keys on the machine description, name included).
	if q, _ := m.Partition(8); *q != *p {
		t.Fatalf("equal-sized partitions differ: %+v vs %+v", q, p)
	}
	if s := m.Subset(8); *s != *p {
		t.Fatal("Partition and Subset disagree for the same node count")
	}
	for _, bad := range []int{0, -1, m.Nodes + 1} {
		if _, err := m.Partition(bad); !errors.Is(err, ErrInvalidMachine) {
			t.Fatalf("Partition(%d) err = %v, want ErrInvalidMachine", bad, err)
		}
	}
}

func TestPresetsValid(t *testing.T) {
	for name, m := range Presets() {
		if err := m.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
		// Latency must strictly increase with tree level.
		if !(m.Links[LevelProcessor].Latency < m.Links[LevelNode].Latency &&
			m.Links[LevelNode].Latency < m.Links[LevelNetwork].Latency) {
			t.Errorf("preset %s: latencies not ordered by level", name)
		}
	}
	if got := JuRoPA().CoresPerNode(); got != 8 {
		t.Errorf("JuRoPA cores per node = %d, want 8", got)
	}
	if got := CHiC().CoresPerNode(); got != 4 {
		t.Errorf("CHiC cores per node = %d, want 4", got)
	}
	if !SGIAltix().SharedMemoryThreads {
		t.Error("Altix must allow cross-node threads")
	}
}

// Property: rank round-trips for arbitrary machine shapes and ranks.
func TestRankRoundTripProperty(t *testing.T) {
	f := func(nodes, ppn, cpp uint8, rank uint16) bool {
		m := &Machine{
			Name:         "q",
			Nodes:        int(nodes%16) + 1,
			ProcsPerNode: int(ppn%4) + 1,
			CoresPerProc: int(cpp%8) + 1,
			CoreGFlops:   1,
		}
		r := int(rank) % m.TotalCores()
		c := m.CoreByRank(r)
		return m.Contains(c) && m.Rank(c) == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: CommLevel is symmetric and consistent with SlowestLevel of the
// pair.
func TestCommLevelProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randCore := func() CoreID {
		return CoreID{Node: rng.Intn(4), Proc: rng.Intn(3), Core: rng.Intn(3)}
	}
	for i := 0; i < 1000; i++ {
		a, b := randCore(), randCore()
		if CommLevel(a, b) != CommLevel(b, a) {
			t.Fatalf("CommLevel not symmetric for %v %v", a, b)
		}
		if a != b {
			if got, want := SlowestLevel([]CoreID{a, b}), CommLevel(a, b); got != want {
				t.Fatalf("SlowestLevel pair %v %v = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestWithoutCores(t *testing.T) {
	m := testMachine() // 4 nodes x 4 cores = 16

	same, err := m.WithoutCores(0)
	if err != nil || same != m {
		t.Fatalf("WithoutCores(0) = %v, %v; want the machine unchanged", same, err)
	}

	// Losing 1..4 cores costs one whole node; 5 cores cost two.
	for _, tc := range []struct{ lost, nodes int }{{1, 3}, {4, 3}, {5, 2}, {8, 2}, {11, 1}} {
		s, err := m.WithoutCores(tc.lost)
		if err != nil {
			t.Fatalf("WithoutCores(%d): %v", tc.lost, err)
		}
		if s.Nodes != tc.nodes {
			t.Fatalf("WithoutCores(%d).Nodes = %d, want %d", tc.lost, s.Nodes, tc.nodes)
		}
		if s.Links != m.Links || s.CoreGFlops != m.CoreGFlops || s.CoresPerNode() != m.CoresPerNode() {
			t.Fatalf("WithoutCores(%d) changed performance parameters", tc.lost)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("WithoutCores(%d) invalid: %v", tc.lost, err)
		}
	}
	if m.Nodes != 4 {
		t.Fatal("WithoutCores mutated the receiver")
	}

	// Losing everything (or a negative count) is an error, not a panic.
	for _, lost := range []int{13, 16, 100, -1} {
		if _, err := m.WithoutCores(lost); err == nil {
			t.Fatalf("WithoutCores(%d) accepted", lost)
		} else if !errors.Is(err, ErrInvalidMachine) {
			t.Fatalf("WithoutCores(%d) = %v, want ErrInvalidMachine", lost, err)
		}
	}
}
