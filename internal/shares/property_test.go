package shares

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/field"
)

// Property: for any cluster size and any private inputs, a full exchange
// reconstructs exactly the sum — and permuting which member assembles which
// column never changes it.
func TestPropertyExchangeReconstructsSum(t *testing.T) {
	f := func(seed int64, sizeRaw uint8, inputsRaw []uint32) bool {
		m := 3 + int(sizeRaw%6) // 3..8
		rng := rand.New(rand.NewSource(seed))
		seeds := make([]field.Element, m)
		for i := range seeds {
			seeds[i] = SeedFor(i)
		}
		algebra, err := NewAlgebra(seeds)
		if err != nil {
			return false
		}
		privates := make([]field.Element, m)
		var want field.Element
		for i := range privates {
			v := uint32(0)
			if i < len(inputsRaw) {
				v = inputsRaw[i]
			}
			privates[i] = field.New(uint64(v))
			want = want.Add(privates[i])
		}
		all := make([]Shares, m)
		for i := range all {
			all[i] = algebra.Generate(rng, privates[i])
		}
		assembled := make([]field.Element, m)
		for j := 0; j < m; j++ {
			var col field.Element
			for i := 0; i < m; i++ {
				col = col.Add(all[i].ForMember[j])
			}
			assembled[j] = col
		}
		got, err := algebra.RecoverSum(assembled)
		if err != nil || got != want {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a single share in isolation is marginally uniform-looking —
// concretely, masking the same private value twice never yields the same
// transmitted share vector (collision probability ~m/p).
func TestPropertySharesNeverRepeat(t *testing.T) {
	f := func(seed int64, v uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		seeds := []field.Element{SeedFor(0), SeedFor(1), SeedFor(2), SeedFor(3)}
		algebra, err := NewAlgebra(seeds)
		if err != nil {
			return false
		}
		a := algebra.Generate(rng, field.New(uint64(v)))
		b := algebra.Generate(rng, field.New(uint64(v)))
		for j := range a.ForMember {
			if a.ForMember[j] != b.ForMember[j] {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: fewer than m colluders never determine an honest reading
// without eavesdropping, for every cluster size in the protocol's range.
func TestPropertyCollusionThresholdHolds(t *testing.T) {
	f := func(sizeRaw, colludersRaw uint8) bool {
		m := 3 + int(sizeRaw%6)          // 3..8
		c := int(colludersRaw) % (m - 1) // 0..m-2
		seeds := make([]field.Element, m)
		for i := range seeds {
			seeds[i] = SeedFor(i)
		}
		algebra, err := NewAlgebra(seeds)
		if err != nil {
			return false
		}
		k := NewKnowledge(algebra)
		for j := 0; j < m; j++ {
			if err := k.AddAssembled(j); err != nil {
				return false
			}
		}
		k.AddClusterSum()
		for j := 1; j <= c; j++ {
			if err := k.AddColluder(j); err != nil {
				return false
			}
		}
		det, err := k.Determined(0)
		return err == nil && !det
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property (the degraded-recovery pin): for every cluster size m∈[3,6] and
// EVERY subset mask with |M|∈[3,m], a fresh sub-share exchange among exactly
// the members of M recovers Σ_{i∈M} v_i through the subset's precomputed
// Lagrange-at-zero weights, bit-identical to the reference Vandermonde solve
// over the subset's seeds.
func TestPropertySubsetRecoveryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for m := 3; m <= 6; m++ {
		seeds := make([]field.Element, m)
		for i := range seeds {
			seeds[i] = SeedFor(3 * i) // non-contiguous seeds
		}
		algebra, err := NewAlgebra(seeds)
		if err != nil {
			t.Fatal(err)
		}
		privates := make([]field.Element, m)
		for i := range privates {
			privates[i] = field.New(rng.Uint64())
		}
		scratch := new(Algebra)
		for mask := uint64(0); mask < uint64(1)<<uint(m); mask++ {
			members := make([]int, 0, m)
			var want field.Element
			for i := 0; i < m; i++ {
				if mask&(uint64(1)<<uint(i)) != 0 {
					members = append(members, i)
					want = want.Add(privates[i])
				}
			}
			sub := new(Algebra)
			err := algebra.SubsetInto(sub, mask)
			if len(members) < MinClusterSize {
				if err == nil && len(members) < m {
					t.Fatalf("m=%d mask=%#x: undersized subset accepted", m, mask)
				}
				continue
			}
			if err != nil {
				t.Fatalf("m=%d mask=%#x: %v", m, mask, err)
			}
			// SubsetInto over the scratch the previous mask left behind
			// builds the same algebra.
			if err := algebra.SubsetInto(scratch, mask); err != nil ||
				!slices.Equal(scratch.seeds, sub.seeds) || !slices.Equal(scratch.weights, sub.weights) {
				t.Fatalf("m=%d mask=%#x: into scratch %v/%v, into a fresh algebra %v/%v (err=%v)",
					m, mask, scratch.seeds, scratch.weights, sub.seeds, sub.weights, err)
			}
			k := len(members)
			all := make([]Shares, k)
			for j, i := range members {
				all[j] = sub.Generate(rng, privates[i])
			}
			assembled := make([]field.Element, k)
			for j := 0; j < k; j++ {
				var col field.Element
				for i := 0; i < k; i++ {
					col = col.Add(all[i].ForMember[j])
				}
				assembled[j] = col
			}
			got, err := sub.RecoverSum(assembled)
			if err != nil || got != want {
				t.Fatalf("m=%d mask=%#x: recovered %v want %v (err=%v)", m, mask, got, want, err)
			}
			ref, err := sub.RecoverSumReference(assembled)
			if err != nil || ref != got {
				t.Fatalf("m=%d mask=%#x: fast %v != reference %v (err=%v)", m, mask, got, ref, err)
			}
		}
	}
	// Masks with bits beyond the cluster are structurally invalid.
	algebra, err := NewAlgebra([]field.Element{SeedFor(0), SeedFor(1), SeedFor(2)})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewAlgebra([]field.Element{SeedFor(5), SeedFor(6), SeedFor(7)})
	if err != nil {
		t.Fatal(err)
	}
	seeds, weights := slices.Clone(dst.seeds), slices.Clone(dst.weights)
	if err := algebra.SubsetInto(dst, 0b1011); err == nil {
		t.Error("SubsetInto accepted an out-of-range mask")
	}
	if !slices.Equal(dst.seeds, seeds) || !slices.Equal(dst.weights, weights) {
		t.Error("SubsetInto changed its destination on error")
	}
}

// SubsetInto into a destination whose buffers are large enough allocates
// nothing: a round engine builds every degraded subset it meets into one
// scratch algebra.
func TestSubsetIntoWarmAllocatesNothing(t *testing.T) {
	seeds := make([]field.Element, 12)
	for i := range seeds {
		seeds[i] = SeedFor(i)
	}
	algebra, err := NewAlgebra(seeds)
	if err != nil {
		t.Fatal(err)
	}
	dst := new(Algebra)
	if err := algebra.SubsetInto(dst, 0b1111_1111_1110); err != nil {
		t.Fatal(err)
	}
	masks := []uint64{0b0111, 0b1011_0110_0001, 0b1111_1111_1110}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		if err := algebra.SubsetInto(dst, masks[i%len(masks)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("warm SubsetInto: %v allocs, want 0", n)
	}
}

// Property (the fast-recovery cross-check): for random cluster sizes
// m∈[3,32], random distinct seeds, and arbitrary assembled vectors — valid
// exchanges or garbage alike — the precomputed weight-vector RecoverSum
// equals the Gaussian-elimination reference path bit for bit.
func TestPropertyFastRecoveryMatchesReference(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		m := 3 + int(sizeRaw%30) // 3..32
		rng := rand.New(rand.NewSource(seed))
		seeds := make([]field.Element, m)
		seen := map[field.Element]bool{}
		for i := range seeds {
			for {
				s := field.New(rng.Uint64())
				if s != 0 && !seen[s] {
					seen[s] = true
					seeds[i] = s
					break
				}
			}
		}
		algebra, err := NewAlgebra(seeds)
		if err != nil {
			return false
		}
		assembled := make([]field.Element, m)
		for i := range assembled {
			assembled[i] = field.New(rng.Uint64())
		}
		fast, err := algebra.RecoverSum(assembled)
		if err != nil {
			return false
		}
		ref, err := algebra.RecoverSumReference(assembled)
		if err != nil {
			return false
		}
		if fast != ref {
			return false
		}
		// The vectorised multi-component path must agree with the scalar one.
		var sums [1]field.Element
		rows := make([][]field.Element, m)
		for i := range rows {
			rows[i] = assembled[i : i+1]
		}
		if err := algebra.RecoverSumInto(sums[:], rows); err != nil {
			return false
		}
		return sums[0] == fast
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
