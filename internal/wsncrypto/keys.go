// Package wsncrypto provides the link-level cryptography the aggregation
// protocols assume: per-link symmetric keys under two key-management
// schemes (ideal pairwise keys and Eschenauer–Gligor random key
// predistribution), and an AES-256-CTR + HMAC-SHA256 sealed envelope for
// first-hop shares and slices. The AES-256 cipher is the package's own
// encrypt-only key schedule, held by value in each Link so that re-keying
// a link allocates nothing: AES-NI routines on amd64 CPUs that have them,
// and a generic T-table implementation everywhere else, both checked
// against crypto/aes by the tests.
//
// The protocols only need (a) the byte overhead an encrypted payload adds
// on the air, and (b) the key-sharing structure that determines which third
// parties can read a link (the privacy analysis in the evaluation). Both
// are modelled faithfully; key establishment handshakes are out of scope,
// as in the lineage papers.
package wsncrypto

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/topo"
)

// KeySize is the length of every link key.
const KeySize = 32

// KeyScheme exposes the key-sharing structure of a network.
type KeyScheme interface {
	// LinkKey returns the symmetric key protecting the a<->b link and
	// whether one exists. Keys are symmetric in (a, b).
	LinkKey(a, b topo.NodeID) ([KeySize]byte, bool)
	// HasKey reports whether LinkKey(a, b) would find a key, without
	// deriving it.
	HasKey(a, b topo.NodeID) bool
	// ThirdPartyCanRead reports whether the observer node holds key
	// material sufficient to decrypt traffic on the a<->b link. Always
	// false for pairwise keys; possible under random predistribution.
	ThirdPartyCanRead(observer, a, b topo.NodeID) bool
	// Name labels the scheme in experiment output.
	Name() string
}

// PairwiseScheme derives a unique key per node pair from a master secret —
// the idealised key distribution in which no third party ever shares a
// link key.
type PairwiseScheme struct {
	// ipad and opad are the master secret XOR the HMAC pads: a derivation
	// hashes one of them in front of its message instead of keying a new
	// HMAC object.
	ipad, opad [sha256.BlockSize]byte
}

var _ KeyScheme = (*PairwiseScheme)(nil)

// NewPairwiseScheme builds the scheme from a master secret.
func NewPairwiseScheme(master []byte) *PairwiseScheme {
	s := &PairwiseScheme{}
	s.ipad, s.opad = hmacPads(master)
	return s
}

// hmacPads returns key XOR ipad and key XOR opad, the two blocks that
// HMAC-SHA256 hashes in front of the message and of the inner digest. A key
// longer than one block is hashed first, as in crypto/hmac.
func hmacPads(key []byte) (ipad, opad [sha256.BlockSize]byte) {
	if len(key) > sha256.BlockSize {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	copy(ipad[:], key)
	copy(opad[:], key)
	for i := range ipad {
		ipad[i] ^= 0x36
		opad[i] ^= 0x5c
	}
	return ipad, opad
}

// LinkKey derives HMAC-SHA256(master, sort(a,b)) as two SHA-256 sums over
// stack buffers.
func (s *PairwiseScheme) LinkKey(a, b topo.NodeID) ([KeySize]byte, bool) {
	if a == b {
		return [KeySize]byte{}, false
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	var in [sha256.BlockSize + 8]byte
	copy(in[:], s.ipad[:])
	binary.BigEndian.PutUint32(in[sha256.BlockSize:], uint32(int32(lo)))
	binary.BigEndian.PutUint32(in[sha256.BlockSize+4:], uint32(int32(hi)))
	var out [sha256.BlockSize + sha256.Size]byte
	copy(out[:], s.opad[:])
	inner := sha256.Sum256(in[:])
	copy(out[sha256.BlockSize:], inner[:])
	return sha256.Sum256(out[:]), true
}

// HasKey implements KeyScheme: every pair of distinct nodes has a key.
func (s *PairwiseScheme) HasKey(a, b topo.NodeID) bool { return a != b }

// ThirdPartyCanRead is always false: pairwise keys are never shared.
func (s *PairwiseScheme) ThirdPartyCanRead(observer, a, b topo.NodeID) bool {
	return false
}

// Name implements KeyScheme.
func (s *PairwiseScheme) Name() string { return "pairwise" }

// EGScheme is Eschenauer–Gligor random key predistribution: a global pool
// of PoolSize keys, each node preloaded with a ring of RingSize random
// pool keys. Two nodes can talk securely iff their rings intersect; they
// use the smallest-index common key, which other ring-holders of that key
// can also read.
type EGScheme struct {
	poolSize int
	ringSize int
	rings    []map[int]struct{} // per node: set of pool key indices
	poolKeys [][KeySize]byte
}

var _ KeyScheme = (*EGScheme)(nil)

// NewEGScheme draws rings for n nodes with the given pool and ring sizes.
func NewEGScheme(rng *rand.Rand, n, poolSize, ringSize int) (*EGScheme, error) {
	if poolSize <= 0 || ringSize <= 0 || ringSize > poolSize {
		return nil, fmt.Errorf("wsncrypto: invalid EG sizes pool=%d ring=%d", poolSize, ringSize)
	}
	s := &EGScheme{
		poolSize: poolSize,
		ringSize: ringSize,
		rings:    make([]map[int]struct{}, n),
		poolKeys: make([][KeySize]byte, poolSize),
	}
	for i := range s.poolKeys {
		for j := range s.poolKeys[i] {
			s.poolKeys[i][j] = byte(rng.Intn(256))
		}
	}
	for i := range s.rings {
		ring := make(map[int]struct{}, ringSize)
		for len(ring) < ringSize {
			ring[rng.Intn(poolSize)] = struct{}{}
		}
		s.rings[i] = ring
	}
	return s, nil
}

// sharedKeyIndex returns the smallest pool index common to both rings,
// or -1 when the rings are disjoint.
func (s *EGScheme) sharedKeyIndex(a, b topo.NodeID) int {
	ra, rb := s.rings[a], s.rings[b]
	if len(rb) < len(ra) {
		ra, rb = rb, ra
	}
	best := -1
	for idx := range ra {
		if best >= 0 && idx >= best {
			continue
		}
		if _, ok := rb[idx]; ok {
			best = idx
		}
	}
	return best
}

// LinkKey implements KeyScheme.
func (s *EGScheme) LinkKey(a, b topo.NodeID) ([KeySize]byte, bool) {
	if a == b {
		return [KeySize]byte{}, false
	}
	idx := s.sharedKeyIndex(a, b)
	if idx < 0 {
		return [KeySize]byte{}, false
	}
	return s.poolKeys[idx], true
}

// HasKey implements KeyScheme.
func (s *EGScheme) HasKey(a, b topo.NodeID) bool {
	return a != b && s.sharedKeyIndex(a, b) >= 0
}

// ThirdPartyCanRead implements KeyScheme: true iff the observer's ring
// contains the key index a and b use.
func (s *EGScheme) ThirdPartyCanRead(observer, a, b topo.NodeID) bool {
	if observer == a || observer == b {
		return true
	}
	idx := s.sharedKeyIndex(a, b)
	if idx < 0 {
		return false
	}
	_, ok := s.rings[observer][idx]
	return ok
}

// Name implements KeyScheme.
func (s *EGScheme) Name() string { return "eg-predistribution" }

// Connectivity returns the fraction of node pairs that share at least one
// key — the EG scheme's key-graph connectivity, used to size pool/ring
// parameters in experiments.
func (s *EGScheme) Connectivity() float64 {
	n := len(s.rings)
	if n < 2 {
		return 0
	}
	pairs, connected := 0, 0
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			pairs++
			if s.sharedKeyIndex(topo.NodeID(a), topo.NodeID(b)) >= 0 {
				connected++
			}
		}
	}
	return float64(connected) / float64(pairs)
}
