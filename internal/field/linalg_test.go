package field

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

func TestVandermondeShape(t *testing.T) {
	seeds := []Element{2, 3, 5}
	m := Vandermonde(seeds)
	if m.Rows() != 3 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d, want 3x3", m.Rows(), m.Cols())
	}
	want := [][]Element{
		{1, 2, 4},
		{1, 3, 9},
		{1, 5, 25},
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if m.At(r, c) != want[r][c] {
				t.Errorf("V[%d][%d] = %v, want %v", r, c, m.At(r, c), want[r][c])
			}
		}
	}
}

func TestSolveLinearIdentity(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	got, err := SolveLinear(a, []Element{7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 || got[1] != 9 {
		t.Errorf("solution = %v, want [7 9]", got)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4) // row 2 = 2 * row 1
	_, err := SolveLinear(a, []Element{1, 2})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveLinearDimensionMismatch(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := SolveLinear(a, []Element{1, 2}); err == nil {
		t.Error("non-square system should error")
	}
	b := NewMatrix(2, 2)
	if _, err := SolveLinear(b, []Element{1}); err == nil {
		t.Error("rhs length mismatch should error")
	}
}

func TestSolveLinearNeedsRowSwap(t *testing.T) {
	// Leading zero forces pivoting.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	got, err := SolveLinear(a, []Element{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 4 || got[1] != 3 {
		t.Errorf("solution = %v, want [4 3]", got)
	}
}

func TestSolveVandermondeRecoversCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(6)
		seeds := distinctSeeds(rng, n)
		coeffs := make([]Element, n)
		for i := range coeffs {
			coeffs[i] = New(rng.Uint64())
		}
		assembled := make([]Element, n)
		for i, x := range seeds {
			assembled[i] = EvalPoly(coeffs, x)
		}
		got, err := SolveVandermonde(seeds, assembled)
		if err != nil {
			t.Fatal(err)
		}
		for i := range coeffs {
			if got[i] != coeffs[i] {
				t.Fatalf("trial %d: coeff[%d] = %v, want %v", trial, i, got[i], coeffs[i])
			}
		}
	}
}

func TestSolveVandermondeRejectsBadSeeds(t *testing.T) {
	if _, err := SolveVandermonde([]Element{0, 1}, []Element{1, 2}); !errors.Is(err, ErrSingular) {
		t.Errorf("zero seed: err = %v, want ErrSingular", err)
	}
	if _, err := SolveVandermonde([]Element{3, 3}, []Element{1, 2}); !errors.Is(err, ErrSingular) {
		t.Errorf("duplicate seed: err = %v, want ErrSingular", err)
	}
	if _, err := SolveVandermonde([]Element{3}, []Element{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestCheckSeeds(t *testing.T) {
	if err := CheckSeeds([]Element{1, 2, 3}); err != nil {
		t.Errorf("valid seeds rejected: %v", err)
	}
}

func distinctSeeds(rng *rand.Rand, n int) []Element {
	seen := make(map[Element]struct{}, n)
	out := make([]Element, 0, n)
	for len(out) < n {
		s := New(rng.Uint64())
		if s == 0 {
			continue
		}
		if _, dup := seen[s]; dup {
			continue
		}
		seen[s] = struct{}{}
		out = append(out, s)
	}
	return out
}

func TestRecoveryWeightsMatchInverseFirstRow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for m := 2; m <= 12; m++ {
		seeds := make([]Element, m)
		seen := map[Element]bool{}
		for i := range seeds {
			for {
				s := New(rng.Uint64())
				if s != 0 && !seen[s] {
					seen[s] = true
					seeds[i] = s
					break
				}
			}
		}
		w, err := RecoveryWeights(seeds)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		// The in-place form, into a dirty buffer, agrees and allocates
		// nothing.
		dirty := make([]Element, m)
		for i := range dirty {
			dirty[i] = New(rng.Uint64())
		}
		if n := testing.AllocsPerRun(10, func() { RecoveryWeightsInto(dirty, seeds) }); n != 0 {
			t.Errorf("m=%d: RecoveryWeightsInto %v allocs, want 0", m, n)
		}
		if !slices.Equal(dirty, w) {
			t.Errorf("m=%d: RecoveryWeightsInto %v, RecoveryWeights %v", m, dirty, w)
		}
		// For random coefficient vectors, w·(V·c) must equal c[0].
		coeffs := make([]Element, m)
		for i := range coeffs {
			coeffs[i] = New(rng.Uint64())
		}
		assembled := make([]Element, m)
		for i, x := range seeds {
			assembled[i] = EvalPoly(coeffs, x)
		}
		if got := Dot(w, assembled); got != coeffs[0] {
			t.Errorf("m=%d: w·F = %v, want c0 = %v", m, got, coeffs[0])
		}
	}
}

func TestRecoveryWeightsRejectBadSeeds(t *testing.T) {
	if _, err := RecoveryWeights([]Element{1, 0, 2}); err == nil {
		t.Error("zero seed should fail")
	}
	if _, err := RecoveryWeights([]Element{1, 2, 2}); err == nil {
		t.Error("duplicate seed should fail")
	}
}
