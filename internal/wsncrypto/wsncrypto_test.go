package wsncrypto

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/topo"
)

func TestPairwiseKeysSymmetric(t *testing.T) {
	s := NewPairwiseScheme([]byte("master"))
	k1, ok1 := s.LinkKey(3, 7)
	k2, ok2 := s.LinkKey(7, 3)
	if !ok1 || !ok2 {
		t.Fatal("pairwise keys must always exist")
	}
	if k1 != k2 {
		t.Error("LinkKey not symmetric")
	}
}

func TestPairwiseKeysDistinctPerPair(t *testing.T) {
	s := NewPairwiseScheme([]byte("master"))
	k1, _ := s.LinkKey(1, 2)
	k2, _ := s.LinkKey(1, 3)
	k3, _ := s.LinkKey(2, 3)
	if k1 == k2 || k1 == k3 || k2 == k3 {
		t.Error("pairwise keys collide")
	}
}

func TestPairwiseSelfLink(t *testing.T) {
	s := NewPairwiseScheme([]byte("m"))
	if _, ok := s.LinkKey(4, 4); ok {
		t.Error("self-link must have no key")
	}
}

func TestPairwiseNoThirdParty(t *testing.T) {
	s := NewPairwiseScheme([]byte("m"))
	if s.ThirdPartyCanRead(9, 1, 2) {
		t.Error("pairwise keys must never leak to third parties")
	}
	if s.Name() != "pairwise" {
		t.Errorf("name = %q", s.Name())
	}
}

func TestEGSchemeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][3]int{{10, 0, 5}, {10, 5, 0}, {10, 5, 6}}
	for _, c := range cases {
		if _, err := NewEGScheme(rng, c[0], c[1], c[2]); err == nil {
			t.Errorf("pool=%d ring=%d should fail", c[1], c[2])
		}
	}
}

func TestEGSharedKeySymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s, err := NewEGScheme(rng, 50, 100, 20)
	if err != nil {
		t.Fatal(err)
	}
	for a := topo.NodeID(0); a < 50; a++ {
		for b := a + 1; b < 50; b++ {
			k1, ok1 := s.LinkKey(a, b)
			k2, ok2 := s.LinkKey(b, a)
			if ok1 != ok2 {
				t.Fatalf("asymmetric existence for %d,%d", a, b)
			}
			if ok1 && k1 != k2 {
				t.Fatalf("asymmetric key for %d,%d", a, b)
			}
		}
	}
}

func TestEGThirdPartySometimesReads(t *testing.T) {
	// Small pool, large rings: third-party sharing is near-certain.
	rng := rand.New(rand.NewSource(3))
	s, err := NewEGScheme(rng, 20, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	any := false
	for obs := topo.NodeID(2); obs < 20 && !any; obs++ {
		if s.ThirdPartyCanRead(obs, 0, 1) {
			any = true
		}
	}
	if !any {
		t.Error("with ring 8 of pool 10, some third party must share the link key")
	}
	if !s.ThirdPartyCanRead(0, 0, 1) {
		t.Error("an endpoint can always read its own link")
	}
}

func TestEGThirdPartyRequiresTheKey(t *testing.T) {
	// Huge pool, tiny rings: third-party sharing is near-impossible.
	rng := rand.New(rand.NewSource(4))
	s, err := NewEGScheme(rng, 10, 100000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LinkKey(0, 1); ok {
		// Rings of 2 from 100k keys almost never intersect; if they do,
		// just skip — the property under test is the negative case below.
		t.Skip("improbable ring intersection")
	}
	if s.ThirdPartyCanRead(5, 0, 1) {
		t.Error("no shared key means nothing to read")
	}
}

func TestEGConnectivityMonotoneInRingSize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	small, err := NewEGScheme(rng, 40, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewEGScheme(rng, 40, 200, 60)
	if err != nil {
		t.Fatal(err)
	}
	cs, cb := small.Connectivity(), big.Connectivity()
	if cb <= cs {
		t.Errorf("connectivity small=%g big=%g; bigger rings must connect more", cs, cb)
	}
	if cb < 0.99 {
		t.Errorf("ring 60 of pool 200 should be almost fully connected, got %g", cb)
	}
	if s := big.Name(); s != "eg-predistribution" {
		t.Errorf("name = %q", s)
	}
}

func TestEGConnectivityDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s, err := NewEGScheme(rng, 1, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Connectivity() != 0 {
		t.Error("single-node connectivity should be 0")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	scheme := NewPairwiseScheme([]byte("secret"))
	key, _ := scheme.LinkKey(1, 2)
	var sender, receiver Link
	sender.Init(&key)
	receiver.Init(&key)
	f := func(pt []byte) bool {
		env := sender.Seal(0, pt)
		if len(env) != len(pt)+Overhead {
			return false
		}
		got, err := receiver.Open(env)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSealerRejectsShortKey(t *testing.T) {
	if _, err := NewSealer([]byte("short")); err == nil {
		t.Error("short key should be rejected")
	}
}

func TestOpenRejectsTamperedCiphertext(t *testing.T) {
	key, _ := NewPairwiseScheme([]byte("k")).LinkKey(1, 2)
	var s Link
	s.Init(&key)
	env := s.Seal(0, []byte("private reading"))
	env[nonceSize] ^= 0xFF
	if _, err := s.Open(env); !errors.Is(err, ErrAuth) {
		t.Errorf("tampered envelope: err = %v, want ErrAuth", err)
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	scheme := NewPairwiseScheme([]byte("k"))
	k1, _ := scheme.LinkKey(1, 2)
	k2, _ := scheme.LinkKey(1, 3)
	var s1, s2 Link
	s1.Init(&k1)
	s2.Init(&k2)
	env := s1.Seal(0, []byte("data"))
	if _, err := s2.Open(env); !errors.Is(err, ErrAuth) {
		t.Errorf("wrong key: err = %v, want ErrAuth", err)
	}
}

func TestOpenRejectsTruncated(t *testing.T) {
	key, _ := NewPairwiseScheme([]byte("k")).LinkKey(1, 2)
	var s Link
	s.Init(&key)
	if _, err := s.Open([]byte{1, 2, 3}); err == nil {
		t.Error("truncated envelope should fail")
	}
}

func TestNoncesUnique(t *testing.T) {
	key, _ := NewPairwiseScheme([]byte("k")).LinkKey(1, 2)
	var s Link
	s.Init(&key)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		env := s.Seal(0, []byte("x"))
		n := string(env[:nonceSize])
		if seen[n] {
			t.Fatal("nonce reused")
		}
		seen[n] = true
	}
}

func TestCiphertextDiffersAcrossSeals(t *testing.T) {
	key, _ := NewPairwiseScheme([]byte("k")).LinkKey(1, 2)
	var s Link
	s.Init(&key)
	a := s.Seal(0, []byte("same plaintext"))
	b := s.Seal(0, []byte("same plaintext"))
	if bytes.Equal(a[nonceSize:len(a)-tagSize], b[nonceSize:len(b)-tagSize]) {
		t.Error("CTR keystream reuse: equal ciphertexts for equal plaintexts")
	}
}
