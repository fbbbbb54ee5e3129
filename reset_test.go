package repro

import (
	"fmt"
	"reflect"
	"testing"
)

// TestResetReplaysRoundBitForBit is the contract the benchmark and
// experiment fast paths rely on: Reset to the deployment's own seed must
// reproduce the original round exactly — same clusters, same collisions,
// same byte counts — without re-deploying the topology.
func TestResetReplaysRoundBitForBit(t *testing.T) {
	dep, err := NewDeployment(Options{Nodes: 120, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	first, err := dep.RunCluster(ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Reset(7); err != nil {
		t.Fatal(err)
	}
	replay, err := dep.RunCluster(ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if replay != first {
		t.Errorf("replay diverged:\n first = %+v\nreplay = %+v", first, replay)
	}
	fresh, err := NewDeployment(Options{Nodes: 120, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fresh.RunCluster(ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ref != first {
		t.Errorf("reset env diverged from fresh deployment:\n fresh = %+v\nfirst = %+v", ref, first)
	}
}

// TestResetNewSeedRunsFreshTrial covers the fixed-topology trial mode: a new
// seed on the same deployment yields a valid, different round.
func TestResetNewSeedRunsFreshTrial(t *testing.T) {
	dep, err := NewDeployment(Options{Nodes: 120, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	first, err := dep.RunCluster(ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Reset(1234); err != nil {
		t.Fatal(err)
	}
	second, err := dep.RunCluster(ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if second.TrueSum == first.TrueSum && second.TxBytes == first.TxBytes {
		t.Error("reseeded round identical to the first (wildly improbable)")
	}
	if second.TrueCount != 119 || second.ReportedSum <= 0 {
		t.Errorf("reseeded round implausible: %+v", second)
	}
}

// TestReusedProtocolMatchesFresh is the reference twin of protocol reuse:
// one deployment answers a scripted sequence of calls, keeping its cluster
// protocol from call to call, and every answer and every traffic count must
// equal what a fresh deployment, reset to the same seed, gives for the same
// call. The options change from call to call, one call fails on a bad
// config, and a bisection that really bisects runs in between, so neither a
// config, a failure nor a bisection's active set may leak into the next
// call.
func TestReusedProtocolMatchesFresh(t *testing.T) {
	type call struct {
		name string
		seed int64
		run  func(*Deployment) (any, error)
	}
	script := func(opts Options, polluter int) []call {
		variants := []struct {
			name string
			o    ClusterOptions
		}{
			{"default", ClusterOptions{}},
			{"crash", ClusterOptions{CrashRate: 0.05}},
			{"headcrash-recover", ClusterOptions{HeadCrashRate: 0.3, CrashRecover: true}},
			{"polluter", ClusterOptions{Polluter: polluter, PollutionDelta: 5000}},
			{"serial", ClusterOptions{Parallelism: 1}},
		}
		var out []call
		v := 0
		for seed := int64(1); seed <= 3; seed++ {
			for i, k := range []QueryKind{QuerySum, QueryCount, QueryAverage, QueryVariance, QueryStdDev, QueryMin, QueryMax} {
				out = append(out, call{fmt.Sprintf("%s/seed=%d", k, seed), seed, func(d *Deployment) (any, error) {
					return d.RunQuery(k, ClusterOptions{})
				}})
				if i%2 == 1 {
					vo := variants[v%len(variants)]
					v++
					out = append(out, call{"cluster/" + vo.name, seed, func(d *Deployment) (any, error) {
						return d.RunCluster(vo.o)
					}})
				}
			}
			if seed == 2 {
				out = append(out,
					call{"cluster/bad-pc", seed, func(d *Deployment) (any, error) {
						return d.RunCluster(ClusterOptions{Pc: 2})
					}},
					// The deployment's own seed: polluter is a head there.
					call{"localize", opts.Seed, func(d *Deployment) (any, error) {
						return d.LocalizePolluter(ClusterOptions{Polluter: polluter, PollutionDelta: 5000})
					}},
					call{"rounds", seed, func(d *Deployment) (any, error) {
						return d.RunClusterRounds(3, ClusterOptions{HeadCrashRate: 0.3, CrashRecover: true})
					}})
			}
		}
		return out
	}

	for _, opts := range []Options{
		{Nodes: 400, Seed: 5, LossRate: 0.05},
		{Nodes: 80, Seed: 5, Ideal: true},
	} {
		polluter, err := PickPolluter(opts, false)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := NewDeployment(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range script(opts, polluter) {
			if err := reused.Reset(c.seed); err != nil {
				t.Fatal(err)
			}
			got, gotErr := c.run(reused)
			fresh, err := NewDeployment(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Reset(c.seed); err != nil {
				t.Fatal(err)
			}
			want, wantErr := c.run(fresh)
			name := fmt.Sprintf("n=%d %s", opts.Nodes, c.name)
			if c.name == "cluster/bad-pc" {
				if gotErr == nil || wantErr == nil {
					t.Fatalf("%s: errors %v / %v, want both to fail", name, gotErr, wantErr)
				}
				continue
			}
			if gotErr != nil || wantErr != nil {
				t.Fatalf("%s: errors %v / %v", name, gotErr, wantErr)
			}
			if loc, ok := want.(LocalizationResult); ok && loc.Rounds < 3 {
				t.Fatalf("%s: %+v, want a bisection over several rounds", name, loc)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: reused protocol diverged:\n  got %+v\n want %+v", name, got, want)
			}
			if g, w := reused.Traffic(), fresh.Traffic(); g != w {
				t.Errorf("%s: traffic %+v, fresh %+v", name, g, w)
			}
		}
	}
}
