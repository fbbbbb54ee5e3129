package geom

import (
	"math"
	"math/rand"
	"testing"
)

// bruteNeighbors is the O(n²) reference: every index whose point lies
// within r of p (boundary inclusive, matching Point.InRange).
func bruteNeighbors(pts []Point, p Point, r float64) []int {
	var out []int
	for i, q := range pts {
		if p.InRange(q, r) {
			out = append(out, i)
		}
	}
	return out
}

// gridNeighbors runs the same query through the spatial index: Near yields
// the 3×3-block candidate superset, the exact predicate filters it. Near
// visits buckets in row-major order and each bucket in ascending index
// order, so the output needs no sorting to compare against the ascending
// brute-force scan... except across bucket boundaries — hence the merge
// into a set below.
func gridNeighbors(ix *PointIndex, pts []Point, p Point, r float64) []int {
	seen := make(map[int]bool)
	ix.Near(p, func(i int) {
		if p.InRange(pts[i], r) {
			seen[i] = true
		}
	})
	out := make([]int, 0, len(seen))
	for i := range pts {
		if seen[i] {
			out = append(out, i)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGridNeighborsMatchBruteForce is the correctness property behind the
// O(n²)→O(n) neighbour-table construction: for random deployments, every
// grid range query must return EXACTLY the brute-force neighbour set — no
// misses from cell-boundary points, no extras from the candidate superset
// surviving the predicate.
func TestGridNeighborsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		f := Field{Width: 50 + rng.Float64()*450, Height: 50 + rng.Float64()*450}
		r := 5 + rng.Float64()*70
		n := 50 + rng.Intn(250)
		pts := UniformDeploy(rng, f, n)
		// Adversarial placements: points exactly on cell boundaries (grid
		// lines at multiples of the cell side = r), on the field border,
		// and coincident points.
		for k := 0; k < 10; k++ {
			pts = append(pts,
				Point{X: r * float64(rng.Intn(5)), Y: r * float64(rng.Intn(5))},
				Point{X: f.Width, Y: rng.Float64() * f.Height},
			)
		}
		pts = append(pts, pts[0], Point{}, Point{X: f.Width, Y: f.Height})

		ix := IndexPoints(NewGrid(f, r), pts)
		for qi := 0; qi < len(pts); qi += 7 {
			p := pts[qi]
			want := bruteNeighbors(pts, p, r)
			got := gridNeighbors(ix, pts, p, r)
			if !equalInts(got, want) {
				t.Fatalf("trial %d query %v r=%.3f: grid %v != brute %v", trial, p, r, got, want)
			}
		}
	}
}

// TestGridNeighborsZeroRadius pins the radius-0 degenerate case: the grid
// collapses to a single cell and a query must still return exactly the
// coincident points (InRange with r=0 is an equality test).
func TestGridNeighborsZeroRadius(t *testing.T) {
	f := Field{Width: 100, Height: 100}
	pts := []Point{{10, 10}, {10, 10}, {10.0000001, 10}, {50, 50}, {100, 100}}
	ix := IndexPoints(NewGrid(f, 0), pts)
	want := bruteNeighbors(pts, Point{10, 10}, 0)
	got := gridNeighbors(ix, pts, Point{10, 10}, 0)
	if !equalInts(got, want) {
		t.Fatalf("r=0: grid %v != brute %v", got, want)
	}
	if len(want) != 2 {
		t.Fatalf("r=0 reference should see exactly the two coincident points, got %v", want)
	}
	// NaN and infinite cell sides degrade to the same single-cell scan.
	for _, cell := range []float64{math.NaN(), math.Inf(1), -3} {
		ix := IndexPoints(NewGrid(f, cell), pts)
		if got := gridNeighbors(ix, pts, Point{50, 50}, 25); !equalInts(got, bruteNeighbors(pts, Point{50, 50}, 25)) {
			t.Fatalf("cell=%v: grid disagrees with brute force", cell)
		}
	}
}

// TestGridQueryFromOutsideField pins the clamping contract: queries from
// positions outside the field (jittered deployments) still see every
// in-range point, because cellOf attributes them to the nearest border cell
// and in-range points can be at most one cell side away.
func TestGridQueryFromOutsideField(t *testing.T) {
	f := Field{Width: 100, Height: 100}
	r := 20.0
	pts := []Point{{1, 1}, {99, 99}, {99, 1}, {1, 99}, {50, 50}}
	ix := IndexPoints(NewGrid(f, r), pts)
	for _, q := range []Point{{-5, -5}, {105, 105}, {105, -5}, {-5, 105}, {50, -10}} {
		want := bruteNeighbors(pts, q, r)
		got := gridNeighbors(ix, pts, q, r)
		if !equalInts(got, want) {
			t.Fatalf("query %v: grid %v != brute %v", q, got, want)
		}
	}
}
