package tag

import (
	"testing"

	"repro/internal/topo"
	"repro/internal/wsn"
)

// runSDAP builds a TAG instance with attestation at sample fraction 0.2,
// adjusted by mut.
func runSDAP(t *testing.T, nodes int, seed int64, ideal bool, mut func(*Config)) (*wsn.Env, *Protocol) {
	t.Helper()
	wcfg := wsn.DefaultConfig(nodes, seed)
	wcfg.Radio.Ideal = ideal
	env, err := wsn.NewEnv(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SampleFraction = 0.2
	if mut != nil {
		mut(&cfg)
	}
	p, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env, p
}

func TestSDAPNewValidation(t *testing.T) {
	env, _ := runSDAP(t, 50, 1, true, nil)
	muts := []func(*Config){
		func(c *Config) { c.FormationWindow = 0 },
		func(c *Config) { c.EpochSlot = 0 },
		func(c *Config) { c.MaxHops = 0 },
		func(c *Config) { c.AttestWindow = 0 },
		func(c *Config) { c.SampleFraction = -0.1 },
		func(c *Config) { c.SampleFraction = 1.1 },
	}
	for i, mut := range muts {
		cfg := DefaultConfig()
		cfg.SampleFraction = 0.2
		mut(&cfg)
		if _, err := New(env, cfg); err == nil {
			t.Errorf("mutation %d should be rejected", i)
		}
	}
}

func TestSDAPCleanRoundAccepted(t *testing.T) {
	env, p := runSDAP(t, 400, 3, true, nil)
	if !env.Net.Connected() {
		t.Skip("disconnected deployment")
	}
	res, err := p.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Error("clean round rejected")
	}
	if res.ReportedSum != res.TrueSum {
		t.Errorf("ideal channel sum = %d, want %d", res.ReportedSum, res.TrueSum)
	}
	if p.Attested() == 0 {
		t.Error("no aggregators challenged")
	}
	if res.Protocol != "sdap" {
		t.Errorf("protocol = %q, want sdap", res.Protocol)
	}
}

func TestSDAPDetectionIsSamplingBounded(t *testing.T) {
	// The headline property: at sample fraction f, a polluting aggregator
	// is caught with probability ~f, unlike the cluster protocol's 1.0.
	const trials = 40
	detections := map[float64]int{}
	for _, f := range []float64{0.2, 0.8} {
		for trial := 0; trial < trials; trial++ {
			seed := int64(100 + trial)
			env, dry := runSDAP(t, 300, seed, true, func(c *Config) { c.SampleFraction = 0 })
			if _, err := dry.Run(1); err != nil {
				t.Fatal(err)
			}
			// Pick a deterministic aggregator with children.
			var polluter topo.NodeID = -1
			for i := 1; i < env.Net.Size(); i++ {
				if dry.nodes[i].aggregated {
					polluter = topo.NodeID(i)
					break
				}
			}
			if polluter < 0 {
				continue
			}
			_, p := runSDAP(t, 300, seed, true, func(c *Config) {
				c.SampleFraction = f
				c.Polluter = polluter
				c.PollutionDelta = 5000
			})
			res, err := p.Run(1)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Accepted {
				detections[f]++
			}
		}
	}
	low := float64(detections[0.2]) / trials
	high := float64(detections[0.8]) / trials
	if high <= low {
		t.Errorf("detection should rise with sampling: f=0.2 -> %.2f, f=0.8 -> %.2f", low, high)
	}
	if low > 0.55 {
		t.Errorf("f=0.2 detection %.2f suspiciously high for a sampling scheme", low)
	}
	if high < 0.5 {
		t.Errorf("f=0.8 detection %.2f suspiciously low", high)
	}
	t.Logf("detection: f=0.2 -> %.2f, f=0.8 -> %.2f", low, high)
}

func TestSDAPAttestationCostsTraffic(t *testing.T) {
	seed := int64(7)
	_, p0 := runSDAP(t, 300, seed, true, func(c *Config) { c.SampleFraction = 0 })
	r0, err := p0.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	_, p1 := runSDAP(t, 300, seed, true, func(c *Config) { c.SampleFraction = 0.5 })
	r1, err := p1.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TxBytes <= r0.TxBytes {
		t.Errorf("attestation bytes %d should exceed plain %d", r1.TxBytes, r0.TxBytes)
	}
	if r0.Protocol != "tag" {
		t.Errorf("sample fraction 0 reports protocol %q, want tag", r0.Protocol)
	}
}

func TestSDAPLossyChannelStillWorks(t *testing.T) {
	env, p := runSDAP(t, 400, 11, false, nil)
	if !env.Net.Connected() {
		t.Skip("disconnected deployment")
	}
	res, err := p.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy(); acc < 0.85 {
		t.Errorf("accuracy = %.3f", acc)
	}
}
