// Package shares implements the CPDA-style additive secret-sharing algebra
// used inside clusters: each member masks its private reading behind a
// random polynomial evaluated at the members' public seeds, members exchange
// encrypted shares, broadcast the assembled column sums in cleartext, and
// anyone holding all assembled values recovers the cluster SUM — and only
// the sum — by solving the Vandermonde system.
//
// For a cluster of m members with distinct non-zero public seeds x_1…x_m,
// member i holding v_i draws random coefficients r_{i,1}…r_{i,m-1} and sends
// member j the share
//
//	y_ij = v_i + r_{i,1}·x_j + … + r_{i,m-1}·x_j^{m-1}  (mod p).
//
// Member j assembles F_j = Σ_i y_ij = S + R_1·x_j + … + R_{m-1}·x_j^{m-1}
// where S = Σ v_i. Solving V(x)·c = F yields c_0 = S.
package shares

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/field"
)

// MinClusterSize is the smallest cluster the algebra protects: with fewer
// than 3 members the cluster sum itself reveals a member's reading to the
// other member.
const MinClusterSize = 3

// Algebra fixes a cluster's public parameters: its ordered member seeds and
// the recovery weight vector w = e₀ᵀ·V(seeds)⁻¹ precomputed once so every
// RecoverSum is a single O(m) dot product instead of an O(m³) elimination.
type Algebra struct {
	seeds   []field.Element
	weights []field.Element
}

// NewAlgebra validates the seeds (distinct, non-zero), precomputes the
// recovery weights, and returns the cluster algebra.
func NewAlgebra(seeds []field.Element) (*Algebra, error) {
	if len(seeds) < 2 {
		return nil, fmt.Errorf("shares: need at least 2 seeds, got %d", len(seeds))
	}
	w, err := field.RecoveryWeights(seeds)
	if err != nil {
		return nil, fmt.Errorf("shares: %w", err)
	}
	return &Algebra{
		seeds:   append([]field.Element(nil), seeds...),
		weights: w,
	}, nil
}

// Size returns the cluster size m.
func (a *Algebra) Size() int { return len(a.seeds) }

// SubsetInto makes dst the algebra over the seeds selected by mask (bit i =
// seed index i): the Lagrange-at-zero recovery weights for the
// degraded-recovery subset M. The subset must keep the cluster viable
// (|M| >= MinClusterSize, or all of a smaller cluster) and must not exceed
// the parent's size. dst's buffers are reused: SubsetInto allocates only
// when they are too small, so a round engine builds every subset it solves
// over into one scratch algebra. dst must not be a. On error dst is
// unchanged.
func (a *Algebra) SubsetInto(dst *Algebra, mask uint64) error {
	m := a.Size()
	full := ^uint64(0)
	if m < 64 {
		full = uint64(1)<<uint(m) - 1
	}
	if mask&^full != 0 {
		return fmt.Errorf("shares: subset mask %#x exceeds cluster of %d", mask, m)
	}
	k := bits.OnesCount64(mask)
	if k < MinClusterSize && k < m {
		return fmt.Errorf("shares: subset of %d below minimum %d", k, MinClusterSize)
	}
	// A mask selects at most 64 seeds, so buffers of that size never grow.
	if cap(dst.seeds) < k {
		dst.seeds = make([]field.Element, 0, max(k, 64))
	}
	if cap(dst.weights) < k {
		dst.weights = make([]field.Element, max(k, 64))
	}
	dst.seeds = dst.seeds[:0]
	for i := 0; i < m; i++ {
		if mask&(uint64(1)<<uint(i)) != 0 {
			dst.seeds = append(dst.seeds, a.seeds[i])
		}
	}
	// A subset of distinct non-zero seeds is distinct and non-zero.
	dst.weights = dst.weights[:k]
	field.RecoveryWeightsInto(dst.weights, dst.seeds)
	return nil
}

// Seeds returns a copy of the public seeds.
func (a *Algebra) Seeds() []field.Element {
	return append([]field.Element(nil), a.seeds...)
}

// SeedFor derives a canonical public seed from a small non-negative
// identifier (e.g. a node ID): id+1, guaranteed non-zero and distinct for
// distinct ids below P-1.
func SeedFor(id int) field.Element {
	return field.New(uint64(id) + 1)
}

// Shares is the output of one member's share generation: Coeffs are the
// member's private random coefficients (kept for the privacy analysis),
// ForMember[j] is the share destined for the j-th member (by seed order).
type Shares struct {
	Coeffs    []field.Element
	ForMember []field.Element
}

// Generate draws random coefficients and evaluates the masking polynomial
// at every member seed. private is the member's reading embedded in the
// field.
func (a *Algebra) Generate(rng *rand.Rand, private field.Element) Shares {
	var out Shares
	a.GenerateInto(rng, private, &out)
	return out
}

// GenerateInto is the scratch-buffer Generate: it reuses out's slices when
// they have capacity, so a caller generating one polynomial per member per
// round allocates nothing in steady state. The coefficient draw order and
// the produced shares are bit-identical to Generate's.
func (a *Algebra) GenerateInto(rng *rand.Rand, private field.Element, out *Shares) {
	out.Coeffs = a.DrawCoeffs(rng, out.Coeffs)
	out.ForMember = growElems(out.ForMember, a.Size())
	a.SharesFromCoeffs(out.ForMember, out.Coeffs, private)
}

// DrawCoeffs draws the m-1 random masking coefficients into buf (reused
// when it has capacity) and returns the resized slice. Splitting the draw
// from the evaluation (SharesFromCoeffs) lets a caller draw into scratch
// and evaluate into buffers of its own.
func (a *Algebra) DrawCoeffs(rng *rand.Rand, buf []field.Element) []field.Element {
	buf = growElems(buf, a.Size()-1)
	for k := range buf {
		buf[k] = field.New(rng.Uint64())
	}
	return buf
}

// SharesFromCoeffs evaluates the masking polynomial private + x·G(x), with
// G's coefficients given, at every member seed: dst[j] is the share for the
// j-th member. dst must hold Size() elements. The function is pure — it
// touches no RNG and mutates nothing but dst — so concurrent calls on the
// same Algebra are safe.
func (a *Algebra) SharesFromCoeffs(dst, coeffs []field.Element, private field.Element) {
	// The masking polynomial is private + x·G(x) with G the random part:
	// evaluate G at every seed, then one Horner step folds the reading in.
	field.EvalPolyInto(dst, coeffs, a.seeds)
	for j, x := range a.seeds {
		dst[j] = dst[j].Mul(x).Add(private)
	}
}

// growElems returns s resized to n elements, reusing its backing array when
// the capacity allows.
func growElems(s []field.Element, n int) []field.Element {
	if cap(s) < n {
		return make([]field.Element, n)
	}
	return s[:n]
}

// Assemble sums the shares one member received (its column sum F_j).
func Assemble(received []field.Element) field.Element {
	return field.Sum(received)
}

// RecoverSum returns the cluster sum (the constant coefficient of the
// interpolated polynomial) as the dot product of the precomputed recovery
// weights with the assembled values — O(m) per call. It is bit-identical
// to RecoverSumReference (property-tested).
func (a *Algebra) RecoverSum(assembled []field.Element) (field.Element, error) {
	if len(assembled) != a.Size() {
		return 0, fmt.Errorf("shares: %d assembled values for cluster of %d", len(assembled), a.Size())
	}
	return field.Dot(a.weights, assembled), nil
}

// RecoverSumReference recovers the cluster sum by solving the full
// Vandermonde system with Gaussian elimination — the O(m³) reference
// implementation the fast weight-vector path is cross-checked against.
func (a *Algebra) RecoverSumReference(assembled []field.Element) (field.Element, error) {
	if len(assembled) != a.Size() {
		return 0, fmt.Errorf("shares: %d assembled values for cluster of %d", len(assembled), a.Size())
	}
	coeffs, err := field.SolveVandermonde(a.seeds, assembled)
	if err != nil {
		return 0, err
	}
	return coeffs[0], nil
}

// RecoverSumInto recovers one cluster sum per query component in a single
// pass: dst[k] = Σ_i w_i·rows[i][k], where rows[i] is member i's assembled
// component vector. Every row must carry at least len(dst) components.
func (a *Algebra) RecoverSumInto(dst []field.Element, rows [][]field.Element) error {
	if len(rows) != a.Size() {
		return fmt.Errorf("shares: %d assembled vectors for cluster of %d", len(rows), a.Size())
	}
	for i, row := range rows {
		if len(row) < len(dst) {
			return fmt.Errorf("shares: assembled vector %d has %d of %d components", i, len(row), len(dst))
		}
	}
	field.DotInto(dst, a.weights, rows)
	return nil
}

// BatchSolver returns a batch Vandermonde solver sharing this algebra's
// precomputed recovery weights, for solving every same-size cluster of a
// round in one pass.
func (a *Algebra) BatchSolver() *field.BatchSolver {
	return field.BatchSolverFromWeights(a.weights)
}

// Viable reports whether a cluster of m members can run the
// protocol (m >= MinClusterSize).
func Viable(m int) bool { return m >= MinClusterSize }
