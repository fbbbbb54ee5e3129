// Package aggfunc implements the paper's reduction of statistics queries to
// additive aggregation: every supported query compiles to one or more
// additive components (per-node transforms of the reading whose network-wide
// sums the protocol computes), plus a finisher that combines the component
// sums at the base station.
//
//	SUM      -> [r]
//	COUNT    -> [1]
//	AVERAGE  -> [r, 1]                      avg = Σr / Σ1
//	VARIANCE -> [r², r, 1]                  var = Σr²/n − (Σr/n)²
//	MIN/MAX  -> [b(r)^k] (power mean)       max ≈ (Σ b^k)^(1/k), bucketised
//
// MIN/MAX quantise readings into BucketCount levels and support two
// methods:
//
//   - MethodHistogram (default): one additive indicator component per
//     bucket; the base station reads off the highest/lowest non-empty
//     bucket. Exact at bucket resolution.
//   - MethodPower: the paper's power-mean approximation
//     max(x_i) = lim_{k→∞} (Σ x_i^k)^{1/k} at finite k = PowerK. The
//     estimate overshoots by at most a factor n^(1/k) in bucket space
//     (all n nodes tied at the max); it is kept as the faithful
//     reconstruction of the paper's suggestion and bounded so component
//     sums stay below the share field's modulus.
package aggfunc

import (
	"fmt"
	"math"
)

// Kind enumerates the supported aggregate queries.
type Kind int

// Supported query kinds.
const (
	Sum Kind = iota + 1
	Count
	Average
	Variance
	StdDev
	Min
	Max
)

var kindNames = map[Kind]string{
	Sum:      "sum",
	Count:    "count",
	Average:  "average",
	Variance: "variance",
	StdDev:   "stddev",
	Min:      "min",
	Max:      "max",
}

// String names the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Valid reports whether k is a defined query kind.
func (k Kind) Valid() bool { return k >= Sum && k <= Max }

// Power-mean parameters for MIN/MAX.
const (
	// BucketCount is the number of quantisation levels for MIN/MAX.
	BucketCount = 16
	// PowerK is the power-mean exponent. 15^5 * 4000 nodes ≈ 3.0e9 ≳ p is
	// too tight, so the compiler checks the bound per deployment; at k=5,
	// networks up to ~2800 nodes stay exact.
	PowerK = 5
)

// Method selects the MIN/MAX reduction.
type Method int

// MIN/MAX methods. The zero value selects MethodHistogram.
const (
	MethodHistogram Method = iota
	MethodPower
)

// Query binds a kind to the reading domain it operates over (needed by the
// MIN/MAX bucketiser and by finishers for de-bucketising).
type Query struct {
	Kind Kind
	// ReadingMin/ReadingMax bound the sensor readings (inclusive).
	ReadingMin, ReadingMax int64
	// Method selects the MIN/MAX reduction (ignored for other kinds).
	Method Method
}

// Validate checks the query.
func (q Query) Validate() error {
	if !q.Kind.Valid() {
		return fmt.Errorf("aggfunc: invalid kind %d", q.Kind)
	}
	if q.ReadingMin > q.ReadingMax {
		return fmt.Errorf("aggfunc: reading range [%d, %d] inverted", q.ReadingMin, q.ReadingMax)
	}
	return nil
}

// Component transforms one node's reading into its additive contribution.
type Component func(reading int64) int64

// Components compiles the query into its additive passes.
func (q Query) Components() ([]Component, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	identity := func(r int64) int64 { return r }
	one := func(int64) int64 { return 1 }
	square := func(r int64) int64 { return r * r }
	switch q.Kind {
	case Sum:
		return []Component{identity}, nil
	case Count:
		return []Component{one}, nil
	case Average:
		return []Component{identity, one}, nil
	case Variance, StdDev:
		return []Component{square, identity, one}, nil
	case Max, Min:
		if q.Method == MethodPower {
			return []Component{q.powerComponent(q.Kind == Min)}, nil
		}
		return q.histogramComponents(), nil
	default:
		return nil, fmt.Errorf("aggfunc: unhandled kind %v", q.Kind)
	}
}

// histogramComponents builds one indicator component per bucket.
// width returns how many components Components compiles q to, without
// building them.
func (q Query) width() (int, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	switch q.Kind {
	case Sum, Count:
		return 1, nil
	case Average:
		return 2, nil
	case Variance, StdDev:
		return 3, nil
	case Max, Min:
		if q.Method == MethodPower {
			return 1, nil
		}
		return BucketCount, nil
	default:
		return 0, fmt.Errorf("aggfunc: unhandled kind %v", q.Kind)
	}
}

func (q Query) histogramComponents() []Component {
	comps := make([]Component, BucketCount)
	for b := 0; b < BucketCount; b++ {
		b := int64(b)
		comps[b] = func(r int64) int64 {
			if q.bucket(r) == b {
				return 1
			}
			return 0
		}
	}
	return comps
}

// bucket quantises a reading into [0, BucketCount-1].
func (q Query) bucket(r int64) int64 {
	span := q.ReadingMax - q.ReadingMin
	if span == 0 {
		return BucketCount - 1
	}
	b := (r - q.ReadingMin) * (BucketCount - 1) / span
	if b < 0 {
		b = 0
	}
	if b > BucketCount-1 {
		b = BucketCount - 1
	}
	return b
}

// unbucket maps a bucket index back to the lower edge of its reading range.
func (q Query) unbucket(b float64) float64 {
	span := float64(q.ReadingMax - q.ReadingMin)
	return float64(q.ReadingMin) + b*span/(BucketCount-1)
}

// powerComponent builds b(r)^k, inverting the bucket for MIN so that the
// max power mean of the inverted buckets gives the minimum.
func (q Query) powerComponent(invert bool) Component {
	return func(r int64) int64 {
		b := q.bucket(r)
		if invert {
			b = (BucketCount - 1) - b
		}
		out := int64(1)
		for i := 0; i < PowerK; i++ {
			out *= b
		}
		return out
	}
}

// Finish combines the component sums (in component order) into the query's
// answer. n is implicit in the component sums where needed.
func (q Query) Finish(sums []int64) (float64, error) {
	width, err := q.width()
	if err != nil {
		return 0, err
	}
	if len(sums) != width {
		return 0, fmt.Errorf("aggfunc: %d sums for %d components", len(sums), width)
	}
	switch q.Kind {
	case Sum, Count:
		return float64(sums[0]), nil
	case Average:
		if sums[1] == 0 {
			return 0, fmt.Errorf("aggfunc: empty population")
		}
		return float64(sums[0]) / float64(sums[1]), nil
	case Variance, StdDev:
		n := float64(sums[2])
		if n == 0 {
			return 0, fmt.Errorf("aggfunc: empty population")
		}
		mean := float64(sums[1]) / n
		v := float64(sums[0])/n - mean*mean
		if v < 0 {
			v = 0 // numeric floor
		}
		if q.Kind == StdDev {
			return math.Sqrt(v), nil
		}
		return v, nil
	case Max, Min:
		if q.Method == MethodPower {
			if q.Kind == Min {
				return q.unbucket(float64(BucketCount-1) - powerRoot(sums[0])), nil
			}
			return q.unbucket(powerRoot(sums[0])), nil
		}
		return q.finishHistogram(sums)
	default:
		return 0, fmt.Errorf("aggfunc: unhandled kind %v", q.Kind)
	}
}

// finishHistogram reads the extreme non-empty bucket.
func (q Query) finishHistogram(counts []int64) (float64, error) {
	if q.Kind == Max {
		for b := BucketCount - 1; b >= 0; b-- {
			if counts[b] > 0 {
				return q.unbucket(float64(b)), nil
			}
		}
	} else {
		for b := 0; b < BucketCount; b++ {
			if counts[b] > 0 {
				return q.unbucket(float64(b)), nil
			}
		}
	}
	return 0, fmt.Errorf("aggfunc: empty population")
}

// powerRoot estimates the max bucket from Σ b^k: floor of the k-th root,
// which is exact when at least one node occupies the max bucket (the sum is
// between B^k and n·B^k, and (n·B^k)^(1/k) < B+1 for n < (1+1/B)^k ... the
// floor is clamped into the valid bucket range and corrected downward when
// the root overshoots due to many ties).
func powerRoot(sum int64) float64 {
	if sum <= 0 {
		return 0
	}
	root := math.Pow(float64(sum), 1.0/float64(PowerK))
	b := math.Floor(root)
	if b > BucketCount-1 {
		b = BucketCount - 1
	}
	return b
}

// MaxExactNodes returns the largest network size for which the MIN/MAX
// component sums stay below limit (the share field modulus), keeping the
// aggregation exact.
func MaxExactNodes(limit int64) int {
	perNode := int64(1)
	for i := 0; i < PowerK; i++ {
		perNode *= BucketCount - 1
	}
	return int(limit / perNode)
}
