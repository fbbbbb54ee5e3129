package repro

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/field"
	"repro/internal/shares"
	"repro/internal/wsn"
)

// Experiment benches — one per table/figure of the evaluation (DESIGN.md
// §4). Each iteration regenerates the experiment in quick mode; run
// cmd/experiments for the full-fidelity sweeps.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiment.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(experiment.RunConfig{Quick: true, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTableDensity(b *testing.B)      { benchExperiment(b, "T1-density") }
func BenchmarkTableClusterShape(b *testing.B) { benchExperiment(b, "T2-clusters") }
func BenchmarkFigCoverage(b *testing.B)       { benchExperiment(b, "F1-coverage") }
func BenchmarkFigOverhead(b *testing.B)       { benchExperiment(b, "F2-overhead") }
func BenchmarkFigAccuracy(b *testing.B)       { benchExperiment(b, "F3-accuracy") }
func BenchmarkFigPrivacy(b *testing.B)        { benchExperiment(b, "F4-privacy") }
func BenchmarkFigIntegrity(b *testing.B)      { benchExperiment(b, "F5-integrity") }
func BenchmarkFigAgreement(b *testing.B)      { benchExperiment(b, "F6-agreement") }
func BenchmarkFigLocalization(b *testing.B)   { benchExperiment(b, "F7-localization") }
func BenchmarkFigCollusion(b *testing.B)      { benchExperiment(b, "F8-collusion") }
func BenchmarkAblationKeyScheme(b *testing.B) { benchExperiment(b, "F9-keyscheme") }
func BenchmarkFigResilience(b *testing.B)     { benchExperiment(b, "F17-resilience") }

// Protocol round benches: one full aggregation round per iteration at the
// papers' N=400 reference density (lossy channel).
//
// Besides the stock -benchmem columns, each round bench reports
// "allocs/node" — allocations per deployed node per round — because a raw
// allocs/op in the hundreds of thousands says nothing about whether the
// per-node cost regressed or the bench just grew. The counter is measured
// with ReadMemStats deltas around exactly the timed region.

func benchProtocolRound(b *testing.B, run func(dep *Deployment) (Result, error)) {
	b.Helper()
	benchRoundN(b, 400, true, func(dep *Deployment) error {
		_, err := run(dep)
		return err
	})
}

// benchSeeds is the length of the seed cycle the round benchmarks Reset
// through: bench-gate's 5 iterations run it exactly once.
const benchSeeds = 5

// benchRoundN deploys n nodes once at the reference density (the field side
// scales with sqrt(n) to hold ~20 neighbours per node) and measures one full
// aggregation round — formation included — per iteration. Iterations cycle
// through benchSeeds, so any whole number of cycles averages the same
// rounds. With warmup, one untimed cycle runs first: the first rounds grow
// port queues, pools, tables and the link slab to what the cycle needs,
// and without the warm-up that one-off cost lands in a 5-iteration
// allocation gate but is spread thin in a 1s-benchtime snapshot of ~50.
func benchRoundN(b *testing.B, n int, warmup bool, run func(dep *Deployment) error) {
	b.Helper()
	// Deploy once; each iteration Resets to the next seed of the cycle so
	// the timer measures the aggregation round, not topology construction.
	dep, err := NewDeployment(Options{
		Nodes:     n,
		FieldSize: 400 * math.Sqrt(float64(n)/400),
		Seed:      1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if warmup {
		for seed := int64(1); seed <= benchSeeds; seed++ {
			if err := dep.Reset(seed); err != nil {
				b.Fatal(err)
			}
			if err := run(dep); err != nil {
				b.Fatal(err)
			}
		}
	}
	var ms runtime.MemStats
	var mallocs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := dep.Reset(int64(1 + i%benchSeeds)); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()
		if err := run(dep); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(mallocs)/float64(b.N)/float64(n), "allocs/node")
}

// scaleHops returns an announce-depth bound covering a deployment of n
// nodes at the reference density: the field diagonal in radio-range hops,
// plus slack for non-geodesic tree paths. The default MaxHops=16 covers the
// papers' 400m field; without this, every head deeper than 16 hops lands in
// the same announce slot and the large benches time an alarm storm instead
// of the protocol.
func scaleHops(n int) int {
	side := 400 * math.Sqrt(float64(n)/400)
	return int(side*math.Sqrt2/50) + 8
}

// BenchmarkRound gates the scale-out round engine: one full cluster round
// (formation + shares + assembly + announce) at growing deployment sizes,
// constant density. See DESIGN.md §"Round execution at scale" for what each
// layer contributes.
func BenchmarkRound(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%dk", n/1000), func(b *testing.B) {
			if n >= 100_000 && testing.Short() {
				// benchtrend's default trend set runs -short; the 100k point
				// takes tens of seconds per iteration, so it is opt-in:
				//   go test -bench 'BenchmarkRound$/n=100k' -benchtime 1x .
				b.Skip("n=100k is skipped under -short")
			}
			benchRoundN(b, n, false, func(dep *Deployment) error {
				_, err := dep.RunCluster(ClusterOptions{MaxHops: scaleHops(n)})
				return err
			})
		})
	}
}

// BenchmarkRoundRetained measures the steady-state epoch — RunRetaining on a
// kept formation, readings re-sampled between rounds — which is where the
// arena-reused round buffers show: the per-round protocol state (share
// tables, F-rows, solve scratch, radio transmission nodes) is all recycled,
// leaving only the per-frame MAC/crypto costs in allocs/node.
func BenchmarkRoundRetained(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("n=%dk", n/1000), func(b *testing.B) {
			wcfg := wsn.DefaultConfig(n, 1)
			wcfg.FieldSize = 400 * math.Sqrt(float64(n)/400)
			env, err := wsn.NewEnv(wcfg)
			if err != nil {
				b.Fatal(err)
			}
			ccfg := core.DefaultConfig()
			ccfg.MaxHops = scaleHops(n)
			p, err := core.New(env, ccfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Run(1); err != nil {
				b.Fatal(err)
			}
			var ms runtime.MemStats
			var mallocs uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				env.ResampleReadings()
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				b.StartTimer()
				// The wire round counter is 16-bit; wrap far below the limit.
				if _, err := p.RunRetaining(uint16(2 + i%60_000)); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - before
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(mallocs)/float64(b.N)/float64(n), "allocs/node")
		})
	}
}

func BenchmarkRoundCluster(b *testing.B) {
	benchProtocolRound(b, func(dep *Deployment) (Result, error) {
		return dep.RunCluster(ClusterOptions{})
	})
}

func BenchmarkRoundTAG(b *testing.B) {
	benchProtocolRound(b, func(dep *Deployment) (Result, error) {
		return dep.RunTAG()
	})
}

func BenchmarkRoundIPDA(b *testing.B) {
	benchProtocolRound(b, func(dep *Deployment) (Result, error) {
		return dep.RunIPDA(IPDAOptions{})
	})
}

// queryMixKinds is the kind cycle BenchmarkQueryMix serves, the seven kinds
// of the serve-mix-400 workload.
var queryMixKinds = []QueryKind{QuerySum, QueryCount, QueryAverage, QueryVariance, QueryStdDev, QueryMin, QueryMax}

// BenchmarkQueryMix is the round path of served queries on a reused
// deployment: 400 nodes, seed 7, the default lossy radio. Op i serves the
// whole kind cycle on seed 1 + i%8: for each of the seven kinds in turn it
// Resets and runs RunQuery. An untimed pass over all eight seeds first
// grows every buffer the cycle needs, so every op allocates the same and
// allocs/op does not depend on b.N.
func BenchmarkQueryMix(b *testing.B) {
	dep, err := NewDeployment(Options{Nodes: 400, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	op := func(i int) {
		for _, kind := range queryMixKinds {
			if err := dep.Reset(int64(1 + i%8)); err != nil {
				b.Fatal(err)
			}
			if _, err := dep.RunQuery(kind, ClusterOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i := 0; i < 8; i++ {
		op(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

// Primitive micro-benches for the hot algebra.

func BenchmarkFieldMul(b *testing.B) {
	x, y := field.New(123456789), field.New(987654321)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x = x.Mul(y)
	}
	_ = x
}

func BenchmarkFieldInv(b *testing.B) {
	x := field.New(123456789)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x = x.Inv().Add(1)
	}
	_ = x
}

func benchAlgebra(b *testing.B, m int) {
	seeds := make([]field.Element, m)
	for i := range seeds {
		seeds[i] = shares.SeedFor(i)
	}
	algebra, err := shares.NewAlgebra(seeds)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	// Scratch reused across iterations, as the protocol's round loop does:
	// the timer then measures the algebra, not the allocator.
	all := make([]shares.Shares, m)
	assembled := make([]field.Element, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range all {
			algebra.GenerateInto(rng, field.New(uint64(j)), &all[j])
		}
		for j := 0; j < m; j++ {
			var col field.Element
			for k := 0; k < m; k++ {
				col = col.Add(all[k].ForMember[j])
			}
			assembled[j] = col
		}
		if _, err := algebra.RecoverSum(assembled); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterAlgebra(b *testing.B) {
	for _, m := range []int{3, 5, 8, 16} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) { benchAlgebra(b, m) })
	}
}

func BenchmarkDisclosureCheck(b *testing.B) {
	p, err := DisclosureProbability(PrivacyScenario{ClusterSize: 5, Px: 0.3}, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	_ = p
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DisclosureProbability(PrivacyScenario{ClusterSize: 5, Px: 0.3}, 10, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
