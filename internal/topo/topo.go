// Package topo builds and analyses the connectivity graph induced by a
// sensor deployment: which nodes can hear which, node degrees, connected
// components, and hop distances from the base station. The graph is static
// per deployment — WSN topologies in this protocol family do not move.
package topo

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
)

// NodeID identifies a node in a deployment. The base station is always
// node 0 by convention of NewNetwork.
type NodeID int

// BaseStationID is the conventional ID of the base station.
const BaseStationID NodeID = 0

// Network is an immutable geometric radio graph over a deployment.
type Network struct {
	field     geom.Field
	rng       float64 // radio range in meters
	positions []geom.Point
	// Adjacency in compressed-sparse-row form: node i's neighbours are
	// adj[off[i]:off[i+1]], so position k of that row is also the dense id
	// off[i]+k of the directed link i → adj[off[i]+k].
	adj []NodeID
	off []int
	// Occupancy of the spatial index (cell side = radio range) the rows
	// were built with, for GridStats.
	gridCells, gridOccupied, gridMax int
}

// Config describes a deployment to build.
type Config struct {
	Field geom.Field
	Range float64 // radio range, meters
	Nodes int     // total nodes including the base station
	Seed  int64

	// BaseAtCenter places the base station at the field center (the
	// lineage papers' setup). When false the base station is random
	// like any other node.
	BaseAtCenter bool

	// Grid switches to jittered-grid deployment (smart-meter scenario).
	Grid bool
	// GridJitter is the per-axis jitter for grid deployment, meters.
	GridJitter float64
}

// NewNetwork deploys Config.Nodes nodes (node 0 is the base station) and
// precomputes neighbour tables.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("topo: need at least 2 nodes, got %d", cfg.Nodes)
	}
	if cfg.Range <= 0 {
		return nil, fmt.Errorf("topo: radio range must be positive, got %g", cfg.Range)
	}
	if cfg.Field.Area() <= 0 {
		return nil, fmt.Errorf("topo: field must have positive area")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var pts []geom.Point
	if cfg.Grid {
		pts = geom.GridDeploy(rng, cfg.Field, cfg.Nodes, cfg.GridJitter)
	} else {
		pts = geom.UniformDeploy(rng, cfg.Field, cfg.Nodes)
	}
	if cfg.BaseAtCenter {
		pts[0] = cfg.Field.Center()
	}
	n := &Network{field: cfg.Field, rng: cfg.Range, positions: pts}
	n.buildNeighbors()
	return n, nil
}

// buildNeighbors fills the adjacency rows with a grid-bucketed range
// query over geom.Grid (near-linear for uniform deployments). Only the
// grid's occupancy outlives the build.
func (n *Network) buildNeighbors() {
	count := len(n.positions)
	n.adj = n.adj[:0]
	n.off = make([]int, count+1)
	grid := geom.NewGrid(n.field, n.rng)
	ix := geom.IndexPoints(grid, n.positions)
	n.gridCells = grid.Cells()
	occ := make([]int, n.gridCells)
	for _, p := range n.positions {
		occ[grid.CellIndex(p)]++
	}
	n.gridOccupied, n.gridMax = 0, 0
	for _, c := range occ {
		if c > 0 {
			n.gridOccupied++
		}
		if c > n.gridMax {
			n.gridMax = c
		}
	}
	for i, p := range n.positions {
		ix.Near(p, func(j int) {
			if j != i && p.InRange(n.positions[j], n.rng) {
				n.adj = append(n.adj, NodeID(j))
			}
		})
		n.off[i+1] = len(n.adj)
	}
}

// Size returns the number of nodes, including the base station.
func (n *Network) Size() int { return len(n.positions) }

// Range returns the radio range in meters.
func (n *Network) Range() float64 { return n.rng }

// Field returns the deployment field.
func (n *Network) Field() geom.Field { return n.field }

// GridStats reports spatial-index occupancy: total cell count, cells holding
// at least one node, and the population of the fullest cell. The round
// engine surfaces these in its per-round trace event so a skewed deployment
// (everything piled into a few cells, degrading grid queries toward the old
// quadratic scan) is visible in aggtrace output.
func (n *Network) GridStats() (cells, occupied, maxPerCell int) {
	return n.gridCells, n.gridOccupied, n.gridMax
}

// Position returns node id's location.
func (n *Network) Position(id NodeID) geom.Point { return n.positions[id] }

// Neighbors returns the one-hop neighbours of id. The returned slice is
// owned by the network; callers must not mutate it.
func (n *Network) Neighbors(id NodeID) []NodeID {
	lo, hi := n.off[id], n.off[id+1]
	return n.adj[lo:hi:hi]
}

// Degree returns the number of one-hop neighbours of id.
func (n *Network) Degree(id NodeID) int { return n.off[id+1] - n.off[id] }

// Links returns the number of directed radio links: the sum of all degrees.
// Link ids are dense in [0, Links()).
func (n *Network) Links() int { return len(n.adj) }

// Link returns the id of the directed link from `from` to its i-th
// neighbour, Neighbors(from)[i]. A node's outgoing links are consecutive,
// so Link(from, 0) ≤ l < Link(from, 0)+Degree(from) holds exactly for the
// links that leave from.
func (n *Network) Link(from NodeID, i int) int { return n.off[from] + i }

// AverageDegree returns the mean node degree.
func (n *Network) AverageDegree() float64 {
	if len(n.positions) == 0 {
		return 0
	}
	return float64(len(n.adj)) / float64(len(n.positions))
}

// InRange reports whether a and b can hear each other.
func (n *Network) InRange(a, b NodeID) bool {
	return a != b && n.positions[a].InRange(n.positions[b], n.rng)
}

// HopDistances returns the BFS hop count from root to every node;
// unreachable nodes get -1.
func (n *Network) HopDistances(root NodeID) []int {
	dist := make([]int, len(n.positions))
	for i := range dist {
		dist[i] = -1
	}
	dist[root] = 0
	queue := []NodeID{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range n.Neighbors(cur) {
			if dist[nb] < 0 {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

// Connected reports whether every node can reach the base station.
func (n *Network) Connected() bool {
	for _, d := range n.HopDistances(BaseStationID) {
		if d < 0 {
			return false
		}
	}
	return true
}

// ReachableCount returns how many nodes (including root) can reach root.
func (n *Network) ReachableCount(root NodeID) int {
	count := 0
	for _, d := range n.HopDistances(root) {
		if d >= 0 {
			count++
		}
	}
	return count
}
