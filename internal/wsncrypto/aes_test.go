package wsncrypto

import (
	"bytes"
	"crypto/aes"
	"encoding/hex"
	"math/rand"
	"testing"
)

// cipherPath is one implementation of the owned AES-256 cipher.
type cipherPath struct {
	name    string
	expand  func(*[KeySize]byte, *schedule)
	encrypt func(*schedule, *[blockSize]byte, *[blockSize]byte)
}

// cipherPaths returns the generic path, and the AES-NI path where the CPU
// has it; the AES-NI case is logged as skipped elsewhere.
func cipherPaths(t testing.TB) []cipherPath {
	paths := []cipherPath{{"generic", expandKeyGeneric, encryptBlockGeneric}}
	if hasAESNI {
		paths = append(paths, cipherPath{"aesni", expandKeyAsm, encryptBlockAsm})
	} else {
		t.Logf("no AES-NI on this CPU: only the generic path runs")
	}
	return paths
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCipherKnownAnswers holds both paths to FIPS-197: the Appendix A.3
// expansion's first and last round keys and the Appendix C.3 AES-256
// example vector.
func TestCipherKnownAnswers(t *testing.T) {
	expKey := [KeySize]byte(unhex(t, "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"))
	key := [KeySize]byte(unhex(t, "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"))
	pt := [blockSize]byte(unhex(t, "00112233445566778899aabbccddeeff"))
	want := unhex(t, "8ea2b7ca516745bfeafc49904b496089")
	for _, p := range cipherPaths(t) {
		var s schedule
		p.expand(&expKey, &s)
		if !bytes.Equal(s[:KeySize], expKey[:]) {
			t.Errorf("%s: round keys 0-1 %x, want the key", p.name, s[:KeySize])
		}
		if last := s[len(s)-blockSize:]; !bytes.Equal(last, unhex(t, "fe4890d1e6188d0b046df344706c631e")) {
			t.Errorf("%s: A.3 round key 14 = %x", p.name, last)
		}
		p.expand(&key, &s)
		var ct [blockSize]byte
		p.encrypt(&s, &ct, &pt)
		if !bytes.Equal(ct[:], want) {
			t.Errorf("%s: C.3 ciphertext %x, want %x", p.name, ct, want)
		}
	}
}

// TestCipherMatchesCryptoAES draws random keys and blocks: every path must
// build the same schedule, and encrypt to what crypto/aes does.
func TestCipherMatchesCryptoAES(t *testing.T) {
	paths := cipherPaths(t)
	rng := rand.New(rand.NewSource(23))
	var key [KeySize]byte
	var pt, ct [blockSize]byte
	for i := 0; i < 10_000; i++ {
		rng.Read(key[:])
		rng.Read(pt[:])
		ref, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		var want [blockSize]byte
		ref.Encrypt(want[:], pt[:])
		var first schedule
		for j, p := range paths {
			var s schedule
			p.expand(&key, &s)
			if j == 0 {
				first = s
			} else if s != first {
				t.Fatalf("key %x: %s schedule %x, %s %x", key, p.name, s, paths[0].name, first)
			}
			p.encrypt(&s, &ct, &pt)
			if ct != want {
				t.Fatalf("key %x block %x: %s gives %x, crypto/aes %x", key, pt, p.name, ct, want)
			}
		}
	}
}

func BenchmarkCipher(b *testing.B) {
	key := [KeySize]byte{1, 2, 3}
	for _, p := range cipherPaths(b) {
		var s schedule
		b.Run(p.name+"/expand", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.expand(&key, &s)
			}
		})
		var blk [blockSize]byte
		b.Run(p.name+"/block", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.encrypt(&s, &blk, &blk)
			}
		})
	}
}
