package aggfunc

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/field"
)

func q(k Kind) Query { return Query{Kind: k, ReadingMin: 10, ReadingMax: 100} }

// runQuery applies the components to readings and finishes — the pure
// reference pipeline the protocols implement over the network.
func runQuery(t *testing.T, query Query, readings []int64) float64 {
	t.Helper()
	comps, err := query.Components()
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]int64, len(comps))
	for i, c := range comps {
		for _, r := range readings {
			sums[i] += c(r)
		}
	}
	out, err := query.Finish(sums)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestValidation(t *testing.T) {
	if err := (Query{Kind: 0}).Validate(); err == nil {
		t.Error("invalid kind accepted")
	}
	if err := (Query{Kind: Sum, ReadingMin: 5, ReadingMax: 1}).Validate(); err == nil {
		t.Error("inverted range accepted")
	}
	if err := q(Sum).Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if Sum.String() != "sum" || Max.String() != "max" {
		t.Error("kind names")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should render")
	}
	if Kind(99).Valid() {
		t.Error("unknown kind valid")
	}
}

func TestSumCount(t *testing.T) {
	readings := []int64{10, 20, 30}
	if got := runQuery(t, q(Sum), readings); got != 60 {
		t.Errorf("sum = %g", got)
	}
	if got := runQuery(t, q(Count), readings); got != 3 {
		t.Errorf("count = %g", got)
	}
}

func TestAverage(t *testing.T) {
	if got := runQuery(t, q(Average), []int64{10, 20, 60}); got != 30 {
		t.Errorf("avg = %g", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	readings := []int64{10, 20, 30, 40}
	// Population variance of {10,20,30,40} = 125.
	if got := runQuery(t, q(Variance), readings); math.Abs(got-125) > 1e-9 {
		t.Errorf("var = %g", got)
	}
	if got := runQuery(t, q(StdDev), readings); math.Abs(got-math.Sqrt(125)) > 1e-9 {
		t.Errorf("stddev = %g", got)
	}
}

func TestEmptyPopulationErrors(t *testing.T) {
	for _, kind := range []Kind{Average, Variance} {
		query := q(kind)
		comps, err := query.Components()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := query.Finish(make([]int64, len(comps))); err == nil {
			t.Errorf("%v of empty population should error", kind)
		}
	}
}

// width, which Finish checks the sums against, counts exactly what
// Components compiles, for every kind and MIN/MAX method.
func TestWidthMatchesComponents(t *testing.T) {
	for k := Sum; k <= Max; k++ {
		for _, m := range []Method{MethodHistogram, MethodPower} {
			query := q(k)
			query.Method = m
			comps, err := query.Components()
			if err != nil {
				t.Fatal(err)
			}
			if w, err := query.width(); err != nil || w != len(comps) {
				t.Errorf("%v method %d: width %d (err %v), %d components", k, m, w, err, len(comps))
			}
		}
	}
}

func TestFinishLengthMismatch(t *testing.T) {
	if _, err := q(Average).Finish([]int64{1}); err == nil {
		t.Error("wrong sums length should error")
	}
}

func TestMaxApproximation(t *testing.T) {
	// Max is exact at bucket resolution: span 90 over 15 buckets = 6 units.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(500)
		readings := make([]int64, n)
		truth := int64(0)
		for i := range readings {
			readings[i] = 10 + rng.Int63n(91)
			if readings[i] > truth {
				truth = readings[i]
			}
		}
		got := runQuery(t, q(Max), readings)
		tol := 90.0/(BucketCount-1) + 1e-9
		if math.Abs(got-float64(truth)) > tol {
			t.Fatalf("trial %d: max = %g, truth %d (tol %g)", trial, got, truth, tol)
		}
	}
}

func TestMinApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(500)
		readings := make([]int64, n)
		truth := int64(1 << 62)
		for i := range readings {
			readings[i] = 10 + rng.Int63n(91)
			if readings[i] < truth {
				truth = readings[i]
			}
		}
		got := runQuery(t, q(Min), readings)
		tol := 90.0/(BucketCount-1) + 1e-9
		if math.Abs(got-float64(truth)) > tol {
			t.Fatalf("trial %d: min = %g, truth %d (tol %g)", trial, got, truth, tol)
		}
	}
}

func TestMaxSingleBucketDegenerate(t *testing.T) {
	// Zero reading span: every reading lands in the top bucket.
	query := Query{Kind: Max, ReadingMin: 7, ReadingMax: 7}
	got := runQuery(t, query, []int64{7, 7, 7})
	if got != 7 {
		t.Errorf("degenerate max = %g", got)
	}
}

func TestPowerMethodEnvelope(t *testing.T) {
	// The power mean overshoots by at most n^(1/k) in bucket space and
	// never undershoots the true maximum.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(500)
		readings := make([]int64, n)
		truth := int64(0)
		for i := range readings {
			readings[i] = 10 + rng.Int63n(91)
			if readings[i] > truth {
				truth = readings[i]
			}
		}
		query := Query{Kind: Max, ReadingMin: 10, ReadingMax: 100, Method: MethodPower}
		got := runQuery(t, query, readings)
		bucketSpan := 90.0 / (BucketCount - 1)
		if got < float64(truth)-bucketSpan-1e-9 {
			t.Fatalf("trial %d: power max %g undershoots truth %d", trial, got, truth)
		}
		// Upper envelope: bucket_est <= min(B-1, bucket_truth * n^(1/k)).
		truthBucket := float64(query.bucket(truth))
		bound := truthBucket * math.Pow(float64(n), 1.0/PowerK)
		if bound > BucketCount-1 {
			bound = BucketCount - 1
		}
		estBucket := (got - 10) / bucketSpan
		if estBucket > bound+1e-9 {
			t.Fatalf("trial %d: bucket est %g above envelope %g", trial, estBucket, bound)
		}
	}
}

func TestHistogramEmptyPopulation(t *testing.T) {
	query := q(Max)
	comps, err := query.Components()
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != BucketCount {
		t.Fatalf("histogram components = %d", len(comps))
	}
	if _, err := query.Finish(make([]int64, len(comps))); err == nil {
		t.Error("empty histogram should error")
	}
}

func TestPowerComponentBounds(t *testing.T) {
	query := Query{Kind: Max, ReadingMin: 10, ReadingMax: 100, Method: MethodPower}
	comps, err := query.Components()
	if err != nil {
		t.Fatal(err)
	}
	maxPer := int64(math.Pow(BucketCount-1, PowerK))
	for r := int64(10); r <= 100; r++ {
		v := comps[0](r)
		if v < 0 || v > maxPer {
			t.Fatalf("component(%d) = %d out of [0, %d]", r, v, maxPer)
		}
	}
	// Out-of-range readings clamp instead of exploding.
	if comps[0](-50) != 0 {
		t.Error("below-range reading should clamp to bucket 0")
	}
	if comps[0](10_000) != maxPer {
		t.Error("above-range reading should clamp to top bucket")
	}
}

func TestMaxExactNodes(t *testing.T) {
	n := MaxExactNodes(int64(field.P))
	if n < 2000 {
		t.Errorf("MaxExactNodes = %d; expected thousands at k=%d, B=%d", n, PowerK, BucketCount)
	}
	// The promised bound actually holds: n nodes all in the top bucket
	// stay below the modulus.
	perNode := int64(math.Pow(BucketCount-1, PowerK))
	if int64(n)*perNode >= int64(field.P) {
		t.Error("bound violated")
	}
}

func TestPowerRootZero(t *testing.T) {
	if powerRoot(0) != 0 || powerRoot(-5) != 0 {
		t.Error("non-positive sums root to 0")
	}
}
