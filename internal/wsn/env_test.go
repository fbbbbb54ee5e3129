package wsn

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/message"
	"repro/internal/topo"
)

func TestDefaultConfigShape(t *testing.T) {
	cfg := DefaultConfig(400, 7)
	if cfg.Nodes != 400 || cfg.Seed != 7 {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.FieldSize != 400 || cfg.Range != 50 {
		t.Errorf("field/range = %g/%g", cfg.FieldSize, cfg.Range)
	}
	if cfg.KeyScheme != KeyPairwise {
		t.Error("default key scheme should be pairwise")
	}
}

func TestNewEnvValidation(t *testing.T) {
	bad := DefaultConfig(100, 1)
	bad.FieldSize = 0
	if _, err := NewEnv(bad); err == nil {
		t.Error("zero field should fail")
	}
	bad = DefaultConfig(100, 1)
	bad.ReadingMin, bad.ReadingMax = 10, 5
	if _, err := NewEnv(bad); err == nil {
		t.Error("inverted reading range should fail")
	}
	bad = DefaultConfig(100, 1)
	bad.KeyScheme = 0
	if _, err := NewEnv(bad); err == nil {
		t.Error("unknown key scheme should fail")
	}
	bad = DefaultConfig(100, 1)
	bad.KeyScheme = KeyEG // missing pool/ring
	if _, err := NewEnv(bad); err == nil {
		t.Error("EG without sizes should fail")
	}
}

func TestReadingsGroundTruth(t *testing.T) {
	cfg := DefaultConfig(50, 3)
	cfg.ReadingMin, cfg.ReadingMax = 10, 100
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if env.Readings[0] != 0 {
		t.Error("base station must have no reading")
	}
	var sum int64
	for i := 1; i < 50; i++ {
		r := env.Readings[i]
		if r < 10 || r > 100 {
			t.Fatalf("reading %d out of range: %d", i, r)
		}
		sum += r
	}
	if env.TrueSum() != sum {
		t.Errorf("TrueSum = %d, want %d", env.TrueSum(), sum)
	}
	if env.TrueCount() != 49 {
		t.Errorf("TrueCount = %d", env.TrueCount())
	}
}

func TestCountReadings(t *testing.T) {
	cfg := DefaultConfig(30, 1)
	cfg.ReadingMin, cfg.ReadingMax = 1, 1
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if env.TrueSum() != 29 {
		t.Errorf("COUNT TrueSum = %d", env.TrueSum())
	}
	if env.ReadingElement(5) != 1 {
		t.Errorf("ReadingElement = %v", env.ReadingElement(5))
	}
}

func TestSealOpenAcrossEnv(t *testing.T) {
	env, err := NewEnv(DefaultConfig(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("share bytes")
	ct, err := env.Seal(3, 7, pt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := env.Open(3, 7, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Errorf("round trip = %q", got)
	}
	// Opening with swapped roles must fail (different sealer state is fine,
	// but a different pair is a different key).
	if _, err := env.Open(3, 8, ct); err == nil {
		t.Error("wrong pair must not decrypt")
	}
	if !env.HasLinkKey(3, 7) {
		t.Error("pairwise scheme always has link keys")
	}
}

// TestLinkNoncesPerDirection pins the nonce sequence of each direction of a
// link: both directions share one key schedule, but each numbers its
// envelopes from 1 on its own.
func TestLinkNoncesPerDirection(t *testing.T) {
	env, err := NewEnv(DefaultConfig(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	nonce := func(a, b topo.NodeID) uint64 {
		ct, err := env.Seal(a, b, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		return binary.BigEndian.Uint64(ct)
	}
	got := []uint64{nonce(3, 7), nonce(3, 7), nonce(7, 3), nonce(3, 7), nonce(7, 3), nonce(2, 7)}
	want := []uint64{1, 2, 1, 3, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("nonces %v, want %v", got, want)
		}
	}
	if err := env.Reset(5); err != nil {
		t.Fatal(err)
	}
	if n := nonce(7, 3); n != 1 {
		t.Errorf("first nonce after Reset = %d, want 1", n)
	}
}

func TestHasLinkKeyDoesNotAllocate(t *testing.T) {
	env, err := NewEnv(DefaultConfig(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	var has bool
	if n := testing.AllocsPerRun(100, func() { has = env.HasLinkKey(3, 7) }); n != 0 {
		t.Errorf("HasLinkKey: %v allocs, want 0", n)
	}
	_ = has
}

func TestEGEnvKeylessPairs(t *testing.T) {
	cfg := DefaultConfig(40, 9)
	cfg.KeyScheme = KeyEG
	cfg.EGPoolSize = 10000
	cfg.EGRingSize = 5
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	keyless := 0
	for a := 1; a < 40; a++ {
		for b := a + 1; b < 40; b++ {
			if !env.HasLinkKey(topoNode(a), topoNode(b)) {
				keyless++
			}
		}
	}
	if keyless == 0 {
		t.Error("tiny rings over a huge pool should leave keyless pairs")
	}
	// Sealing over a keyless pair errors instead of panicking.
	for a := 1; a < 40; a++ {
		for b := a + 1; b < 40; b++ {
			if !env.HasLinkKey(topoNode(a), topoNode(b)) {
				if _, err := env.Seal(topoNode(a), topoNode(b), []byte("x")); err == nil {
					t.Fatal("keyless Seal should error")
				}
				return
			}
		}
	}
}

func TestDeterministicEnv(t *testing.T) {
	a, err := NewEnv(DefaultConfig(60, 11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEnv(DefaultConfig(60, 11))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Readings {
		if a.Readings[i] != b.Readings[i] {
			t.Fatalf("readings differ at %d", i)
		}
	}
}

func topoNode(i int) topo.NodeID { return topo.NodeID(i) }

func TestResampleReadings(t *testing.T) {
	env, err := NewEnv(DefaultConfig(80, 21))
	if err != nil {
		t.Fatal(err)
	}
	before := env.TrueSum()
	env.ResampleReadings()
	after := env.TrueSum()
	if before == after {
		t.Error("readings did not change (possible but wildly improbable)")
	}
	if env.Readings[0] != 0 {
		t.Error("base station gained a reading")
	}
	for i := 1; i < 80; i++ {
		if r := env.Readings[i]; r < 10 || r > 100 {
			t.Fatalf("resampled reading %d out of range: %d", i, r)
		}
	}
}

func TestResetReplaysFreshEnv(t *testing.T) {
	cfg := DefaultConfig(60, 11)
	used, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty every resettable layer: burn RNG draws, run the clock, push a
	// frame through the MAC, warm the sealer cache.
	used.Rng.Uint64()
	used.ResampleReadings()
	used.Eng.After(time.Millisecond, func() {})
	if err := used.Eng.Run(0); err != nil {
		t.Fatal(err)
	}
	used.MAC.Send(&message.Message{Kind: message.KindHello, From: 1, To: message.BroadcastID})
	if err := used.Eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if _, err := used.Seal(3, 7, []byte("x")); err != nil {
		t.Fatal(err)
	}

	if err := used.Reset(11); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if used.Eng.Now() != 0 || used.Eng.Pending() != 0 || used.Eng.Processed() != 0 {
		t.Errorf("engine not rewound: now=%v pending=%d", used.Eng.Now(), used.Eng.Pending())
	}
	if used.Rec.TotalTxBytes() != 0 || used.Rec.TotalTxMessages() != 0 {
		t.Errorf("recorder not cleared: %d bytes", used.Rec.TotalTxBytes())
	}
	if used.MAC.Drops() != 0 || used.MAC.AcksSent() != 0 {
		t.Error("MAC counters not cleared")
	}
	for i := range fresh.Readings {
		if used.Readings[i] != fresh.Readings[i] {
			t.Fatalf("reading %d = %d after reset, fresh env has %d", i, used.Readings[i], fresh.Readings[i])
		}
	}
	// The RNG must continue from the identical stream.
	for i := 0; i < 32; i++ {
		if a, b := used.Rng.Uint64(), fresh.Rng.Uint64(); a != b {
			t.Fatalf("rng draw %d diverges: %d vs %d", i, a, b)
		}
	}
	// Key material must round-trip across reset and fresh envs.
	ct, err := used.Seal(3, 7, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := fresh.Open(3, 7, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, []byte("payload")) {
		t.Errorf("cross-env open = %q", pt)
	}
}

func TestResetWithNewSeedKeepsTopologyOnly(t *testing.T) {
	env, err := NewEnv(DefaultConfig(60, 11))
	if err != nil {
		t.Fatal(err)
	}
	before := append([]int64(nil), env.Readings...)
	degree := env.Net.AverageDegree()
	if err := env.Reset(99); err != nil {
		t.Fatal(err)
	}
	if env.Cfg.Seed != 99 {
		t.Errorf("Cfg.Seed = %d", env.Cfg.Seed)
	}
	if env.Net.AverageDegree() != degree {
		t.Error("topology changed across reset")
	}
	other, err := NewEnv(DefaultConfig(60, 99))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range before {
		if env.Readings[i] != before[i] {
			same = false
		}
		if env.Readings[i] != other.Readings[i] {
			t.Fatalf("reading %d = %d, seed-99 env draws %d", i, env.Readings[i], other.Readings[i])
		}
	}
	if same {
		t.Error("readings unchanged after reseeding (wildly improbable)")
	}
}

func TestResetRebuildsEGKeys(t *testing.T) {
	cfg := DefaultConfig(40, 9)
	cfg.KeyScheme = KeyEG
	cfg.EGPoolSize = 200
	cfg.EGRingSize = 20
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Reset(9); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for a := 1; a < 40; a++ {
		for b := a + 1; b < 40; b++ {
			if env.HasLinkKey(topoNode(a), topoNode(b)) != fresh.HasLinkKey(topoNode(a), topoNode(b)) {
				t.Fatalf("key graph diverges at %d<->%d", a, b)
			}
		}
	}
}

func TestTracefNilSafe(t *testing.T) {
	env, err := NewEnv(DefaultConfig(10, 22))
	if err != nil {
		t.Fatal(err)
	}
	env.Tracef(1, "cat", "detail %d", 5) // Trace nil: must not panic
}
