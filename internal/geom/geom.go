// Package geom provides the plane geometry used to deploy wireless sensor
// networks: points, distances, and uniform random deployments over a square
// field. All randomness is injected through *rand.Rand so that every
// simulation run is reproducible from a seed.
package geom

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a position in the 2D deployment plane, in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance to o.
func (p Point) Dist(o Point) float64 {
	dx, dy := p.X-o.X, p.Y-o.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist2 returns the squared distance to o, avoiding the sqrt for
// range comparisons.
func (p Point) Dist2(o Point) float64 {
	dx, dy := p.X-o.X, p.Y-o.Y
	return dx*dx + dy*dy
}

// InRange reports whether o lies within radius r of p.
func (p Point) InRange(o Point, r float64) bool {
	return p.Dist2(o) <= r*r
}

// String renders "(x, y)".
func (p Point) String() string {
	return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y)
}

// Field is a rectangular deployment area with the origin at (0,0).
type Field struct {
	Width, Height float64
}

// Contains reports whether p lies inside the field.
func (f Field) Contains(p Point) bool {
	return p.X >= 0 && p.X <= f.Width && p.Y >= 0 && p.Y <= f.Height
}

// Center returns the field's midpoint.
func (f Field) Center() Point {
	return Point{X: f.Width / 2, Y: f.Height / 2}
}

// Area returns the field's area.
func (f Field) Area() float64 {
	return f.Width * f.Height
}

// UniformDeploy places n points uniformly at random over the field.
func UniformDeploy(rng *rand.Rand, f Field, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * f.Width, Y: rng.Float64() * f.Height}
	}
	return pts
}

// GridDeploy places up to n points on a regular grid with small jitter,
// useful for the advanced-metering example where meters sit on a street
// grid rather than at random. jitter is the max absolute perturbation
// applied per axis.
func GridDeploy(rng *rand.Rand, f Field, n int, jitter float64) []Point {
	side := int(math.Ceil(math.Sqrt(float64(n))))
	if side == 0 {
		return nil
	}
	dx := f.Width / float64(side)
	dy := f.Height / float64(side)
	pts := make([]Point, 0, n)
	for row := 0; row < side && len(pts) < n; row++ {
		for col := 0; col < side && len(pts) < n; col++ {
			p := Point{
				X: (float64(col)+0.5)*dx + (rng.Float64()*2-1)*jitter,
				Y: (float64(row)+0.5)*dy + (rng.Float64()*2-1)*jitter,
			}
			p.X = clamp(p.X, 0, f.Width)
			p.Y = clamp(p.Y, 0, f.Height)
			pts = append(pts, p)
		}
	}
	return pts
}

// ExpectedDegree returns the expected number of one-hop neighbours for a
// node in a uniform deployment of n nodes over field f with radio range r,
// ignoring border effects: (n-1) * pi r^2 / area.
func ExpectedDegree(f Field, n int, r float64) float64 {
	if n <= 1 || f.Area() == 0 {
		return 0
	}
	return float64(n-1) * math.Pi * r * r / f.Area()
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Grid is a uniform spatial index over a field: square cells whose side
// equals the query radius, so that every point within that radius of a
// position lies inside the 3×3 block of cells around the position's own
// cell. Range queries therefore scan at most nine buckets instead of the
// whole deployment. Grid is pure geometry (cell addressing); pair it with
// PointIndex for a bucketed point set, or keep per-cell state of your own.
//
// A non-positive, NaN, or infinite cell size degenerates to a single cell
// covering the whole field: every query scans everything, which keeps the
// superset contract trivially true for radius-zero queries.
type Grid struct {
	cell       float64
	cols, rows int
}

// NewGrid builds a grid over f with the given cell side. The cell side
// must be at least the radius of the range queries the grid will serve;
// larger cells stay correct but scan more candidates.
func NewGrid(f Field, cell float64) Grid {
	g := Grid{cell: cell, cols: 1, rows: 1}
	if !(cell > 0) || math.IsInf(cell, 0) {
		g.cell = 0
		return g
	}
	g.cols = int(f.Width/cell) + 1
	g.rows = int(f.Height/cell) + 1
	return g
}

// Cells returns the total number of grid cells.
func (g Grid) Cells() int { return g.cols * g.rows }

// cellOf returns p's clamped (col, row). Points outside the field are
// attributed to the nearest border cell, so the grid tolerates jittered
// or clamped deployments without bounds checks at every call site.
func (g Grid) cellOf(p Point) (int, int) {
	if g.cell <= 0 {
		return 0, 0
	}
	c := int(p.X / g.cell)
	r := int(p.Y / g.cell)
	if c < 0 {
		c = 0
	} else if c >= g.cols {
		c = g.cols - 1
	}
	if r < 0 {
		r = 0
	} else if r >= g.rows {
		r = g.rows - 1
	}
	return c, r
}

// CellIndex returns the flat bucket index of p's cell, in [0, Cells()).
func (g Grid) CellIndex(p Point) int {
	c, r := g.cellOf(p)
	return r*g.cols + c
}

// VisitNeighborhood calls fn with the flat index of every existing cell
// in the 3×3 block centred on p's cell, in row-major order. Together
// those cells contain every point within one cell side of p.
func (g Grid) VisitNeighborhood(p Point, fn func(cell int)) {
	c, r := g.cellOf(p)
	for nr := max(r-1, 0); nr <= min(r+1, g.rows-1); nr++ {
		for nc := max(c-1, 0); nc <= min(c+1, g.cols-1); nc++ {
			fn(nr*g.cols + nc)
		}
	}
}

// PointIndex is a Grid plus a fixed point set bucketed by cell — the
// index behind near-linear neighbour-table construction.
type PointIndex struct {
	grid    Grid
	buckets [][]int32
}

// IndexPoints buckets pts by g's cells. Point indices within a bucket
// stay in ascending order, so visitors see candidates deterministically.
func IndexPoints(g Grid, pts []Point) *PointIndex {
	ix := &PointIndex{grid: g, buckets: make([][]int32, g.Cells())}
	for i, p := range pts {
		ci := g.CellIndex(p)
		ix.buckets[ci] = append(ix.buckets[ci], int32(i))
	}
	return ix
}

// Near visits the index of every point in the 3×3 cell neighbourhood of
// p — a superset of the points within the grid's cell side of p. Callers
// apply their own exact distance predicate.
func (ix *PointIndex) Near(p Point, fn func(i int)) {
	ix.grid.VisitNeighborhood(p, func(cell int) {
		for _, i := range ix.buckets[cell] {
			fn(int(i))
		}
	})
}
