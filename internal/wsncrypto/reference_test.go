package wsncrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/topo"
)

// refLinkKey is the pairwise derivation through crypto/hmac.
func refLinkKey(master []byte, a, b topo.NodeID) []byte {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	mac := hmac.New(sha256.New, master)
	var buf [8]byte
	binary.BigEndian.PutUint32(buf[:4], uint32(int32(lo)))
	binary.BigEndian.PutUint32(buf[4:], uint32(int32(hi)))
	mac.Write(buf[:])
	return mac.Sum(nil)
}

// refSeal is the envelope through crypto/hmac and cipher.NewCTR.
func refSeal(key []byte, nonce uint64, pt []byte) []byte {
	block, err := aes.NewCipher(key[:32])
	if err != nil {
		panic(err)
	}
	mk := sha256.Sum256(append([]byte("mac:"), key[:32]...))
	out := make([]byte, nonceSize+len(pt)+tagSize)
	binary.BigEndian.PutUint64(out, nonce)
	iv := make([]byte, aes.BlockSize)
	copy(iv, out[:nonceSize])
	cipher.NewCTR(block, iv).XORKeyStream(out[nonceSize:nonceSize+len(pt)], pt)
	mac := hmac.New(sha256.New, mk[:])
	mac.Write(out[:nonceSize+len(pt)])
	copy(out[nonceSize+len(pt):], mac.Sum(nil)[:tagSize])
	return out
}

// sharedKeyIndexRef is the collect-and-sort form of EGScheme.sharedKeyIndex.
func sharedKeyIndexRef(s *EGScheme, a, b topo.NodeID) int {
	var candidates []int
	for idx := range s.rings[a] {
		if _, ok := s.rings[b][idx]; ok {
			candidates = append(candidates, idx)
		}
	}
	if len(candidates) == 0 {
		return -1
	}
	sort.Ints(candidates)
	return candidates[0]
}

var (
	refMasters = [][]byte{
		[]byte("m"),
		[]byte("master-11"),
		bytes.Repeat([]byte{0xa5}, sha256.BlockSize),
		bytes.Repeat([]byte("long master secret "), 10), // 190 bytes: hashed first
	}
	refPairs   = [][2]topo.NodeID{{1, 2}, {7, 3}, {0, 9999}, {123456, 5}}
	refLengths = []int{0, 1, 15, 16, 17, 200}
)

func TestLinkKeyMatchesHMAC(t *testing.T) {
	for _, master := range refMasters {
		s := NewPairwiseScheme(master)
		for _, p := range refPairs {
			got, ok := s.LinkKey(p[0], p[1])
			if !ok {
				t.Fatalf("no key for %v", p)
			}
			if want := refLinkKey(master, p[0], p[1]); !bytes.Equal(got[:], want) {
				t.Errorf("master %d bytes, pair %v: key %x, crypto/hmac %x", len(master), p, got, want)
			}
		}
	}
}

func TestEnvelopesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, master := range refMasters {
		key, _ := NewPairwiseScheme(master).LinkKey(4, 9)
		s, err := NewSealer(key[:])
		if err != nil {
			t.Fatal(err)
		}
		var l Link
		l.Init(&key)
		for i, n := range refLengths {
			pt := make([]byte, n)
			rng.Read(pt)
			want := refSeal(key[:], uint64(i+1), pt)
			// AppendSeal into a prefix with dirty spare capacity: the
			// envelope must follow the prefix intact, sealed in place.
			prefix := []byte{0xA5, 0x5A, byte(n)}
			dst := append(slices.Clone(prefix), bytes.Repeat([]byte{0xEE}, n+Overhead)...)[:len(prefix)]
			appended := l.AppendSeal(dst, 1, pt)
			if &appended[0] != &dst[0] || !bytes.Equal(appended[:len(prefix)], prefix) {
				t.Fatalf("AppendSeal, %d bytes: moved or overwrote the prefix", n)
			}
			for name, got := range map[string][]byte{
				"Sealer":          s.Seal(pt),
				"Link dir 0":      l.Seal(0, pt),
				"Link AppendSeal": appended[len(prefix):],
			} {
				if !bytes.Equal(got, want) {
					t.Fatalf("%s, %d bytes, nonce %d: %x, reference %x", name, n, i+1, got, want)
				}
			}
			for name, open := range map[string]func([]byte) ([]byte, error){"Sealer": s.Open, "Link": l.Open} {
				if got, err := open(want); err != nil || !bytes.Equal(got, pt) {
					t.Fatalf("%s.Open of the reference envelope: %x, %v", name, got, err)
				}
			}
		}
	}
}

func TestLinkInitRewindsNonces(t *testing.T) {
	key, _ := NewPairwiseScheme([]byte("k")).LinkKey(1, 2)
	var l Link
	l.Init(&key)
	l.Seal(0, []byte("x"))
	l.Seal(1, []byte("x"))
	l.Init(&key)
	if got, want := l.Seal(1, []byte("x")), refSeal(key[:], 1, []byte("x")); !bytes.Equal(got, want) {
		t.Errorf("after Init: %x, want the first envelope %x", got, want)
	}
}

func TestSharedKeyIndexMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range [][3]int{{30, 10, 8}, {30, 100, 5}, {30, 1000, 30}, {30, 100000, 2}, {30, 50, 50}} {
		s, err := NewEGScheme(rng, c[0], c[1], c[2])
		if err != nil {
			t.Fatal(err)
		}
		for a := topo.NodeID(0); a < topo.NodeID(c[0]); a++ {
			for b := topo.NodeID(0); b < topo.NodeID(c[0]); b++ {
				if got, want := s.sharedKeyIndex(a, b), sharedKeyIndexRef(s, a, b); got != want {
					t.Fatalf("pool %d ring %d, %d<->%d: index %d, sorted candidates give %d", c[1], c[2], a, b, got, want)
				}
				if got, want := s.HasKey(a, b), a != b && sharedKeyIndexRef(s, a, b) >= 0; got != want {
					t.Fatalf("HasKey(%d, %d) = %v, want %v", a, b, got, want)
				}
				if _, ok := s.LinkKey(a, b); ok != s.HasKey(a, b) {
					t.Fatalf("LinkKey and HasKey disagree on %d<->%d", a, b)
				}
			}
		}
	}
}

func TestKeysAndChecksDoNotAllocate(t *testing.T) {
	pw := NewPairwiseScheme([]byte("master"))
	eg, err := NewEGScheme(rand.New(rand.NewSource(1)), 20, 100, 20)
	if err != nil {
		t.Fatal(err)
	}
	var sink [KeySize]byte
	var has bool
	cases := map[string]func(){
		"pairwise LinkKey": func() { sink, _ = pw.LinkKey(3, 7) },
		"pairwise HasKey":  func() { has = pw.HasKey(3, 7) },
		"EG LinkKey":       func() { sink, _ = eg.LinkKey(3, 7) },
		"EG HasKey":        func() { has = eg.HasKey(3, 7) },
	}
	// Re-keying a link expands its schedule and midstates in place; a
	// -race build allocates in the standard library's part of it.
	var l Link
	if !raceEnabled {
		cases["Link.Init"] = func() { l.Init(&sink) }
	}
	for name, f := range cases {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs, want 0", name, n)
		}
	}
	_, _ = sink, has
}

func TestWarmSealOpenAllocateOnlyTheirOutput(t *testing.T) {
	key, _ := NewPairwiseScheme([]byte("master")).LinkKey(3, 7)
	s, err := NewSealer(key[:])
	if err != nil {
		t.Fatal(err)
	}
	var l Link
	l.Init(&key)
	pt := make([]byte, 65)
	env := s.Seal(pt)
	for name, f := range map[string]func(){
		"Sealer.Seal": func() { s.Seal(pt) },
		"Sealer.Open": func() { _, _ = s.Open(env) },
		"Link.Seal":   func() { l.Seal(1, pt) },
		"Link.Open":   func() { _, _ = l.Open(env) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 1 {
			t.Errorf("%s: %v allocs, want 1 (the returned bytes)", name, n)
		}
	}
	// Into enough capacity the append forms allocate nothing at all.
	buf := make([]byte, 0, len(env))
	for name, f := range map[string]func(){
		"Link.AppendSeal": func() { l.AppendSeal(buf, 1, pt) },
		"Link.AppendOpen": func() { _, _ = l.AppendOpen(buf, env) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs into spare capacity, want 0", name, n)
		}
	}
}

// TestLinkDirectionsConcurrently seals both directions of one link from two
// goroutines, as two exchange workers may; run it under -race.
func TestLinkDirectionsConcurrently(t *testing.T) {
	key, _ := NewPairwiseScheme([]byte("master")).LinkKey(3, 7)
	var l Link
	l.Init(&key)
	const n = 200
	var envs [2][][]byte
	var wg sync.WaitGroup
	for dir := range envs {
		wg.Add(1)
		go func(dir int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				envs[dir] = append(envs[dir], l.Seal(dir, []byte{byte(dir), byte(i)}))
			}
		}(dir)
	}
	wg.Wait()
	for dir := range envs {
		for i, env := range envs[dir] {
			if want := refSeal(key[:], uint64(i+1), []byte{byte(dir), byte(i)}); !bytes.Equal(env, want) {
				t.Fatalf("direction %d envelope %d: %x, want %x", dir, i, env, want)
			}
		}
	}
}

// FuzzOpen checks that Open is total on arbitrary bytes — spoofed frames
// reach it — that AppendOpen onto a prefix agrees with it, and that flipping
// any single byte of a valid envelope fails authentication.
func FuzzOpen(f *testing.F) {
	key, _ := NewPairwiseScheme([]byte("master")).LinkKey(3, 7)
	var s, l Link // s seals in direction 0; l opens independently of it
	s.Init(&key)
	for _, n := range refLengths {
		f.Add(s.Seal(0, make([]byte, n)), byte(1))
	}
	f.Add([]byte{}, byte(0))
	f.Add(make([]byte, Overhead-1), byte(0x80))
	l.Init(&key)
	f.Fuzz(func(t *testing.T, data []byte, flip byte) {
		pt, err := s.Open(data)
		if err == nil && len(pt) != len(data)-Overhead {
			t.Fatalf("opened %d bytes into %d", len(data), len(pt))
		}
		// AppendOpen(prefix, x) is prefix ‖ Open(x), or the prefix alone
		// with Open's error.
		prefix := []byte{0xC3, flip}
		got, aerr := l.AppendOpen(slices.Clone(prefix), data)
		if fmt.Sprint(aerr) != fmt.Sprint(err) || !bytes.Equal(got, append(slices.Clone(prefix), pt...)) {
			t.Fatalf("AppendOpen: %x, %v; Open: %x, %v", got, aerr, pt, err)
		}
		env := s.Seal(0, data)
		pt, err = s.Open(env)
		if err != nil || !bytes.Equal(pt, data) {
			t.Fatalf("round trip: %x, %v", pt, err)
		}
		if flip == 0 {
			flip = 0x80
		}
		for i := range env {
			env[i] ^= flip
			if _, err := s.Open(env); !errors.Is(err, ErrAuth) {
				t.Fatalf("byte %d ^ %#x: err = %v, want ErrAuth", i, flip, err)
			}
			env[i] ^= flip
		}
	})
}

// payload is a values frame of c components: a count byte and four bytes
// per component.
func payload(c int) []byte { return make([]byte, 1+4*c) }

// benchSink keeps benchmarked results live.
var benchSink []byte

func BenchmarkSeal(b *testing.B) {
	key, _ := NewPairwiseScheme([]byte("master")).LinkKey(3, 7)
	for _, c := range []int{1, 16} {
		b.Run(fmt.Sprintf("w=%d", c), func(b *testing.B) {
			var l Link
			l.Init(&key)
			pt := payload(c)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = l.Seal(0, pt)
			}
		})
	}
}

func BenchmarkOpen(b *testing.B) {
	key, _ := NewPairwiseScheme([]byte("master")).LinkKey(3, 7)
	for _, c := range []int{1, 16} {
		b.Run(fmt.Sprintf("w=%d", c), func(b *testing.B) {
			var l Link
			l.Init(&key)
			env := l.Seal(0, payload(c))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pt, err := l.Open(env)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = pt
			}
		})
	}
}

// BenchmarkLinkSetup is the cold path a link pays once per round: derive
// the pairwise key, then expand its key schedule and HMAC midstates in
// place.
func BenchmarkLinkSetup(b *testing.B) {
	s := NewPairwiseScheme([]byte("master"))
	var l Link
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key, _ := s.LinkKey(topo.NodeID(i), topo.NodeID(i+1))
		l.Init(&key)
	}
}
