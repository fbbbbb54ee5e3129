package field

import "fmt"

// Matrix is a dense row-major matrix over GF(P).
type Matrix struct {
	rows, cols int
	data       []Element
}

// NewMatrix allocates a rows×cols zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{rows: rows, cols: cols, data: make([]Element, rows*cols)}
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) Element { return m.data[r*m.cols+c] }

// Set writes the element at (r, c).
func (m *Matrix) Set(r, c int, v Element) { m.data[r*m.cols+c] = v }

// Vandermonde builds the m×m matrix whose row i is
// [1, x_i, x_i^2, ..., x_i^(m-1)]. The seeds must be distinct and non-zero
// for the matrix to be invertible.
func Vandermonde(seeds []Element) *Matrix {
	n := len(seeds)
	m := NewMatrix(n, n)
	for i, x := range seeds {
		acc := Element(1)
		for j := 0; j < n; j++ {
			m.Set(i, j, acc)
			acc = acc.Mul(x)
		}
	}
	return m
}

// SolveLinear solves A·x = b by Gaussian elimination with partial pivoting
// (pivoting here means picking any non-zero pivot, since GF(p) has no
// magnitude). A is modified in place. Returns ErrSingular when no unique
// solution exists.
func SolveLinear(a *Matrix, b []Element) ([]Element, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("field: non-square system %dx%d", a.rows, a.cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("field: rhs length %d != %d", len(b), n)
	}
	rhs := make([]Element, n)
	copy(rhs, b)

	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if a.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrSingular
		}
		if pivot != col {
			for c := 0; c < n; c++ {
				v1, v2 := a.At(col, c), a.At(pivot, c)
				a.Set(col, c, v2)
				a.Set(pivot, c, v1)
			}
			rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		}
		inv := a.At(col, col).Inv()
		for c := col; c < n; c++ {
			a.Set(col, c, a.At(col, c).Mul(inv))
		}
		rhs[col] = rhs[col].Mul(inv)
		for r := 0; r < n; r++ {
			if r == col || a.At(r, col) == 0 {
				continue
			}
			factor := a.At(r, col)
			for c := col; c < n; c++ {
				a.Set(r, c, a.At(r, c).Sub(factor.Mul(a.At(col, c))))
			}
			rhs[r] = rhs[r].Sub(factor.Mul(rhs[col]))
		}
	}
	return rhs, nil
}

// SolveVandermonde recovers the coefficient vector c from assembled values
// F_i = Σ_j c_j · x_i^j, i.e. it solves V(x)·c = F. The first coefficient
// c_0 is the quantity of interest for CPDA clusters: the sum of the private
// inputs. Seeds must be distinct and non-zero.
func SolveVandermonde(seeds, assembled []Element) ([]Element, error) {
	if len(seeds) != len(assembled) {
		return nil, fmt.Errorf("field: %d seeds vs %d assembled values", len(seeds), len(assembled))
	}
	if err := CheckSeeds(seeds); err != nil {
		return nil, err
	}
	return SolveLinear(Vandermonde(seeds), assembled)
}

// RecoveryWeights returns the weight vector w = e₀ᵀ·V(seeds)⁻¹, i.e. the
// first row of the inverse Vandermonde matrix. With it, the constant
// coefficient of the interpolated polynomial — the cluster SUM — is the
// single dot product c₀ = Σ_j w_j·F_j instead of an O(m³) elimination.
//
// The closed form is Lagrange interpolation evaluated at zero:
//
//	w_j = L_j(0) = Π_{k≠j} x_k / (x_k − x_j),
//
// computed in O(m²) multiplications plus one inversion. Seeds
// must be distinct and non-zero (ErrSingular otherwise), which also
// guarantees every denominator is invertible.
func RecoveryWeights(seeds []Element) ([]Element, error) {
	if err := CheckSeeds(seeds); err != nil {
		return nil, err
	}
	w := make([]Element, len(seeds))
	RecoveryWeightsInto(w, seeds)
	return w, nil
}

// RecoveryWeightsInto writes the recovery weights of seeds into dst, which
// must hold len(seeds) elements, without allocating. It does not check the
// seeds: the caller must know them distinct and non-zero, as any subset of
// a seed set that RecoveryWeights accepted is. One field inversion serves
// every weight: dst first holds the running products of the denominators,
// and a backward pass peels one denominator's inverse off the inverted
// total at a time.
func RecoveryWeightsInto(dst, seeds []Element) {
	dst = dst[:len(seeds)]
	acc := Element(1)
	for j, xj := range seeds {
		acc = acc.Mul(denominator(seeds, j, xj))
		dst[j] = acc
	}
	inv := acc.Inv() // 1 / Π_j den_j
	for j := len(seeds) - 1; j >= 0; j-- {
		xj := seeds[j]
		num := Element(1)
		for k, xk := range seeds {
			if k != j {
				num = num.Mul(xk)
			}
		}
		invDen := inv // 1 / den_j once the later denominators are peeled off
		if j > 0 {
			invDen = inv.Mul(dst[j-1])
		}
		inv = inv.Mul(denominator(seeds, j, xj))
		dst[j] = num.Mul(invDen)
	}
}

// denominator returns Π_{k≠j} (x_k − x_j), the Lagrange denominator of
// seed j.
func denominator(seeds []Element, j int, xj Element) Element {
	den := Element(1)
	for k, xk := range seeds {
		if k != j {
			den = den.Mul(xk.Sub(xj))
		}
	}
	return den
}

// BatchSolver recovers the constant coefficient of many Vandermonde systems
// sharing one seed vector in a single pass. A round engine groups every
// cluster of size m behind one solver (one weights table per m) and lays the
// clusters' assembled values out as contiguous right-hand-side columns, so
// the whole group is solved with m row-scaled vector accumulations instead
// of one dot product per cluster.
type BatchSolver struct {
	weights []Element
}

// NewBatchSolver precomputes the Lagrange-at-zero recovery weights for the
// seed vector (distinct, non-zero) shared by every system in the batch.
func NewBatchSolver(seeds []Element) (*BatchSolver, error) {
	w, err := RecoveryWeights(seeds)
	if err != nil {
		return nil, err
	}
	return &BatchSolver{weights: w}, nil
}

// BatchSolverFromWeights wraps an already-computed recovery weight vector
// (e.g. one cached by a cluster algebra) without copying. The caller must
// not mutate w afterwards.
func BatchSolverFromWeights(w []Element) *BatchSolver {
	return &BatchSolver{weights: w}
}

// Size returns the per-system dimension m.
func (b *BatchSolver) Size() int { return len(b.weights) }

// SolveInto solves cols systems at once: rhs is the m×cols row-major matrix
// whose row i holds the i-th assembled value of every system, and on return
// dst[j] = Σ_i w_i·rhs[i·cols+j] — the recovered sum of system j. dst must
// hold cols elements and rhs m·cols. SolveInto is pure (no shared state),
// so concurrent calls on the same solver are safe.
func (b *BatchSolver) SolveInto(dst, rhs []Element, cols int) error {
	m := len(b.weights)
	if cols < 0 || len(dst) < cols {
		return fmt.Errorf("field: batch dst holds %d of %d columns", len(dst), cols)
	}
	if len(rhs) < m*cols {
		return fmt.Errorf("field: batch rhs holds %d of %d values", len(rhs), m*cols)
	}
	for j := range dst[:cols] {
		dst[j] = 0
	}
	for i := 0; i < m; i++ {
		w := b.weights[i]
		row := rhs[i*cols : (i+1)*cols]
		for j, v := range row {
			dst[j] = dst[j].Add(w.Mul(v))
		}
	}
	return nil
}

// CheckSeeds verifies that the seed set is usable for a Vandermonde system:
// all non-zero and pairwise distinct.
func CheckSeeds(seeds []Element) error {
	seen := make(map[Element]struct{}, len(seeds))
	for _, s := range seeds {
		if s == 0 {
			return fmt.Errorf("field: zero seed: %w", ErrSingular)
		}
		if _, dup := seen[s]; dup {
			return fmt.Errorf("field: duplicate seed %v: %w", s, ErrSingular)
		}
		seen[s] = struct{}{}
	}
	return nil
}
