package topo

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func defaultConfig(n int, seed int64) Config {
	return Config{
		Field:        geom.Field{Width: 400, Height: 400},
		Range:        50,
		Nodes:        n,
		Seed:         seed,
		BaseAtCenter: true,
	}
}

func TestNewNetworkValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"too few nodes", Config{Field: geom.Field{Width: 10, Height: 10}, Range: 5, Nodes: 1}},
		{"zero range", Config{Field: geom.Field{Width: 10, Height: 10}, Range: 0, Nodes: 5}},
		{"zero area", Config{Field: geom.Field{}, Range: 5, Nodes: 5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewNetwork(tt.cfg); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestNeighborsMatchBruteForce(t *testing.T) {
	n, err := NewNetwork(defaultConfig(150, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n.Size(); i++ {
		want := make(map[NodeID]bool)
		for j := 0; j < n.Size(); j++ {
			if i != j && n.Position(NodeID(i)).InRange(n.Position(NodeID(j)), n.Range()) {
				want[NodeID(j)] = true
			}
		}
		got := n.Neighbors(NodeID(i))
		if len(got) != len(want) {
			t.Fatalf("node %d: %d neighbors, want %d", i, len(got), len(want))
		}
		for _, nb := range got {
			if !want[nb] {
				t.Fatalf("node %d: unexpected neighbor %d", i, nb)
			}
		}
	}
}

func TestNeighborSymmetry(t *testing.T) {
	n, err := NewNetwork(defaultConfig(200, 5))
	if err != nil {
		t.Fatal(err)
	}
	adj := make(map[[2]NodeID]bool)
	for i := 0; i < n.Size(); i++ {
		for _, j := range n.Neighbors(NodeID(i)) {
			adj[[2]NodeID{NodeID(i), j}] = true
		}
	}
	for key := range adj {
		if !adj[[2]NodeID{key[1], key[0]}] {
			t.Fatalf("edge %v not symmetric", key)
		}
	}
}

func TestAverageDegreeMatchesPaperTable(t *testing.T) {
	// Table I of the lineage papers: N=200 -> ~8.8, N=400 -> ~18.6,
	// N=600 -> ~28.4 on 400x400 with r=50. Allow slack for seed noise
	// and border effects.
	tests := []struct {
		n      int
		lo, hi float64
	}{
		{200, 7.0, 10.5},
		{400, 16.0, 21.0},
		{600, 25.0, 31.5},
	}
	for _, tt := range tests {
		var total float64
		const trials = 5
		for seed := int64(0); seed < trials; seed++ {
			n, err := NewNetwork(defaultConfig(tt.n, seed))
			if err != nil {
				t.Fatal(err)
			}
			total += n.AverageDegree()
		}
		avg := total / trials
		if avg < tt.lo || avg > tt.hi {
			t.Errorf("N=%d: avg degree %.2f outside [%g, %g]", tt.n, avg, tt.lo, tt.hi)
		}
	}
}

func TestHopDistances(t *testing.T) {
	n, err := NewNetwork(defaultConfig(400, 7))
	if err != nil {
		t.Fatal(err)
	}
	dist := n.HopDistances(BaseStationID)
	if dist[BaseStationID] != 0 {
		t.Fatalf("root distance = %d", dist[BaseStationID])
	}
	// Every reachable node's distance differs by exactly 1 from some neighbor
	// closer to the root.
	for i, d := range dist {
		if d <= 0 {
			continue
		}
		found := false
		for _, nb := range n.Neighbors(NodeID(i)) {
			if dist[nb] == d-1 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("node %d at distance %d has no neighbor at %d", i, d, d-1)
		}
	}
	// Max hop distance should be bounded by the field diagonal / range.
	diag := math.Sqrt(2) * 400
	maxHops := int(diag/50) + 3
	for i, d := range dist {
		if d > maxHops {
			t.Fatalf("node %d at impossible distance %d", i, d)
		}
	}
}

func TestConnectedDenseNetwork(t *testing.T) {
	n, err := NewNetwork(defaultConfig(500, 11))
	if err != nil {
		t.Fatal(err)
	}
	if !n.Connected() {
		t.Error("dense 500-node network should be connected")
	}
	if got := n.ReachableCount(BaseStationID); got != 500 {
		t.Errorf("reachable = %d, want 500", got)
	}
}

func TestSparseNetworkDisconnected(t *testing.T) {
	cfg := defaultConfig(10, 13)
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 10 nodes on 400x400 with 50m range is almost surely disconnected.
	if n.Connected() {
		t.Skip("unexpectedly connected sparse network; seed-dependent")
	}
	if got := n.ReachableCount(BaseStationID); got >= 10 {
		t.Errorf("reachable = %d in a disconnected network", got)
	}
}

func TestDeterministicTopology(t *testing.T) {
	a, err := NewNetwork(defaultConfig(100, 21))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNetwork(defaultConfig(100, 21))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Size(); i++ {
		if a.Position(NodeID(i)) != b.Position(NodeID(i)) {
			t.Fatalf("position %d differs", i)
		}
		if a.Degree(NodeID(i)) != b.Degree(NodeID(i)) {
			t.Fatalf("degree %d differs", i)
		}
	}
}

func TestBaseAtCenter(t *testing.T) {
	n, err := NewNetwork(defaultConfig(50, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Position(BaseStationID); got != (geom.Point{X: 200, Y: 200}) {
		t.Errorf("base station at %v, want center", got)
	}
}

func TestGridDeployNetwork(t *testing.T) {
	cfg := defaultConfig(100, 1)
	cfg.Grid = true
	cfg.GridJitter = 2
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n.Size() != 100 {
		t.Fatalf("size = %d", n.Size())
	}
	for i := 0; i < n.Size(); i++ {
		if !n.Field().Contains(n.Position(NodeID(i))) {
			t.Fatalf("node %d outside field", i)
		}
	}
}

func TestInRange(t *testing.T) {
	n, err := NewNetwork(defaultConfig(100, 9))
	if err != nil {
		t.Fatal(err)
	}
	if n.InRange(3, 3) {
		t.Error("node is never in range of itself")
	}
	for _, nb := range n.Neighbors(7) {
		if !n.InRange(7, nb) {
			t.Errorf("neighbor %d not InRange", nb)
		}
	}
}

// TestLinkIDsDense pins the link index: walking every node's neighbour row
// in order visits link ids 0, 1, …, Links()-1 exactly once, and a caller
// appending to one row cannot overwrite the next.
func TestLinkIDsDense(t *testing.T) {
	n, err := NewNetwork(defaultConfig(200, 5))
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for id := 0; id < n.Size(); id++ {
		from := NodeID(id)
		if n.Degree(from) != len(n.Neighbors(from)) {
			t.Fatalf("node %d: Degree %d, row length %d", id, n.Degree(from), len(n.Neighbors(from)))
		}
		for i := range n.Neighbors(from) {
			if l := n.Link(from, i); l != next {
				t.Fatalf("Link(%d, %d) = %d, want %d", id, i, l, next)
			}
			next++
		}
	}
	if next != n.Links() {
		t.Fatalf("rows hold %d links, Links() = %d", next, n.Links())
	}
	if got, want := n.AverageDegree(), float64(n.Links())/float64(n.Size()); got != want {
		t.Errorf("AverageDegree = %v, want %v", got, want)
	}
	row := n.Neighbors(0)
	following := append([]NodeID(nil), n.Neighbors(1)...)
	_ = append(row, -1)
	for i, nb := range n.Neighbors(1) {
		if nb != following[i] {
			t.Fatal("appending to Neighbors(0) overwrote Neighbors(1)")
		}
	}
}
