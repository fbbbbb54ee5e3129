package wsncrypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sync"
)

// Envelope framing:
//
//	nonce  8 bytes (sender counter, unique per key per direction)
//	ct     len(plaintext) bytes (AES-256-CTR)
//	tag    8 bytes (HMAC-SHA256 truncated)
//
// Overhead is the extra bytes an encrypted payload carries on the air.
const (
	nonceSize = 8
	tagSize   = 8
	// Overhead is nonceSize + tagSize.
	Overhead = nonceSize + tagSize
)

// ErrAuth reports a failed authentication tag check.
var ErrAuth = errors.New("wsncrypto: authentication failed")

// midstateSize is the length of a marshaled SHA-256 state.
const midstateSize = 108

// resumableHash is a SHA-256 digest that can save and restore its state.
type resumableHash interface {
	hash.Hash
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// binaryAppender is the allocation-free form of MarshalBinary that SHA-256
// digests implement from Go 1.24 on.
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// scratch is the per-call working memory of Seal and Open: a digest to
// resume the HMAC midstates in, the digest's output, and the CTR counter
// block and keystream; keying a link also passes its pad blocks through
// it. It comes from a pool so that none of it is allocated per call and
// concurrent callers never share it.
type scratch struct {
	h       resumableHash
	sum     [sha256.Size]byte
	ctr, ks [blockSize]byte
	pad     [sha256.BlockSize]byte
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{h: sha256.New().(resumableHash)}
}}

// keyState is everything sealing under one link key needs: the AES-256 key
// schedule, and the SHA-256 states after absorbing the HMAC key's inner and
// outer pad blocks. It is a plain value that holds no pointer, so keying
// overwrites it in place, and any number of callers may share it read-only.
type keyState struct {
	sched        schedule
	inner, outer [midstateSize]byte
}

// init derives the key schedule and the HMAC midstates of key in place.
// The MAC key is SHA-256("mac:" ‖ key).
func (k *keyState) init(key *[KeySize]byte) {
	k.sched.expand(key)
	var in [4 + KeySize]byte
	copy(in[:], "mac:")
	copy(in[4:], key[:])
	mk := sha256.Sum256(in[:])
	ipad, opad := hmacPads(mk[:])
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.pad = ipad
	midstate(&k.inner, sc)
	sc.pad = opad
	midstate(&k.outer, sc)
}

// midstate stores in dst the SHA-256 state after hashing sc.pad. A
// crypto/sha256 digest always marshals to midstateSize bytes, so a failure
// here is a bug and panics.
func midstate(dst *[midstateSize]byte, sc *scratch) {
	h := sc.h
	h.Reset()
	h.Write(sc.pad[:])
	var st []byte
	var err error
	if a, ok := h.(binaryAppender); ok {
		st, err = a.AppendBinary(dst[:0])
	} else {
		st, err = h.MarshalBinary()
	}
	if err != nil {
		panic("wsncrypto: " + err.Error())
	}
	if len(st) != midstateSize {
		panic(fmt.Sprintf("wsncrypto: SHA-256 state is %d bytes, want %d", len(st), midstateSize))
	}
	copy(dst[:], st)
}

// tag computes HMAC-SHA256 over body by resuming the two midstates, and
// returns its truncated prefix, which lives in sc.
func (k *keyState) tag(sc *scratch, body []byte) []byte {
	_ = sc.h.UnmarshalBinary(k.inner[:]) // a state this digest type marshaled
	sc.h.Write(body)
	inner := sc.h.Sum(sc.sum[:0])
	_ = sc.h.UnmarshalBinary(k.outer[:])
	sc.h.Write(inner)
	return sc.h.Sum(sc.sum[:0])[:tagSize]
}

// appendSeal encrypts plaintext under nonce and appends
// nonce || ciphertext || tag to dst. plaintext must not overlap the bytes
// appended.
func (k *keyState) appendSeal(dst []byte, nonce uint64, plaintext []byte) []byte {
	start, n := len(dst), nonceSize+len(plaintext)
	dst = extend(dst, n+tagSize)
	out := dst[start:]
	binary.BigEndian.PutUint64(out, nonce)
	sc := scratchPool.Get().(*scratch)
	k.ctrXOR(sc, out[:nonceSize], out[nonceSize:n], plaintext)
	copy(out[n:], k.tag(sc, out[:n]))
	scratchPool.Put(sc)
	return dst
}

// appendOpen verifies an envelope sealed under the same key and appends its
// plaintext to dst. It is total: any input either opens or returns an
// error, and on error dst is returned unchanged.
func (k *keyState) appendOpen(dst, envelope []byte) ([]byte, error) {
	if len(envelope) < Overhead {
		return dst, fmt.Errorf("wsncrypto: envelope too short: %d", len(envelope))
	}
	n := len(envelope) - tagSize
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if !hmac.Equal(k.tag(sc, envelope[:n]), envelope[n:]) {
		return dst, ErrAuth
	}
	start := len(dst)
	dst = extend(dst, n-nonceSize)
	k.ctrXOR(sc, envelope[:nonceSize], dst[start:], envelope[nonceSize:n])
	return dst, nil
}

// extend returns dst lengthened by n bytes, reallocating (exactly, in one
// allocation) only when its spare capacity is short.
func extend(dst []byte, n int) []byte {
	if cap(dst)-len(dst) < n {
		grown := make([]byte, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	return dst[:len(dst)+n]
}

// ctrXOR applies AES-256-CTR with the counter and keystream blocks in sc:
// Seal and Open run once per frame, so no cipher object nor heap-escaping
// block is built per call. Semantics match cipher.NewCTR with the IV
// nonce ‖ 0⁸ — the full 16-byte IV is a big-endian counter.
func (k *keyState) ctrXOR(sc *scratch, nonce, dst, src []byte) {
	sc.ctr = [blockSize]byte{}
	copy(sc.ctr[:], nonce)
	for off := 0; off < len(src); off += blockSize {
		k.sched.encrypt(&sc.ks, &sc.ctr)
		for i := blockSize - 1; i >= 0; i-- {
			sc.ctr[i]++
			if sc.ctr[i] != 0 {
				break
			}
		}
		n := len(src) - off
		if n > blockSize {
			n = blockSize
		}
		for i := 0; i < n; i++ {
			dst[off+i] = src[off+i] ^ sc.ks[i]
		}
	}
}

// Sealer is one direction of a Link keyed from a byte slice: a monotonic
// nonce counter under one link key. bench/micro.go times the traced
// wsncrypto.seal_ns_* and open_ns_* metrics through it. Not safe for
// concurrent Seal calls; Open may run concurrently.
type Sealer struct{ link Link }

// NewSealer builds a Sealer from a link key of at least 32 bytes; only the
// first 32 are used.
func NewSealer(key []byte) (*Sealer, error) {
	if len(key) < KeySize {
		return nil, fmt.Errorf("wsncrypto: key too short: %d bytes", len(key))
	}
	s := &Sealer{}
	s.link.Init((*[KeySize]byte)(key))
	return s, nil
}

// Seal encrypts plaintext, returning nonce || ciphertext || tag.
func (s *Sealer) Seal(plaintext []byte) []byte { return s.link.Seal(0, plaintext) }

// Open verifies and decrypts an envelope produced by Seal under the same key.
func (s *Sealer) Open(envelope []byte) ([]byte, error) { return s.link.Open(envelope) }

// Link is the sealing state of one undirected link: one key schedule and
// one pair of HMAC midstates serve both directions, and each direction has
// its own nonce counter, numbering its envelopes from 1. Seals in opposite
// directions may run concurrently; seals in one direction may not.
type Link struct {
	key  keyState
	sent [2]uint64 // per direction: envelopes sealed so far
}

// Init keys the link and rewinds both nonce counters, overwriting whatever
// the link held before. It works in place and allocates nothing.
func (l *Link) Init(key *[KeySize]byte) {
	l.sent = [2]uint64{}
	l.key.init(key)
}

// AppendSeal encrypts plaintext in direction dir (0 or 1) and appends
// nonce || ciphertext || tag to dst, growing it only when its spare
// capacity is short of len(plaintext) + Overhead bytes. plaintext must not
// overlap the bytes appended.
func (l *Link) AppendSeal(dst []byte, dir int, plaintext []byte) []byte {
	l.sent[dir]++
	return l.key.appendSeal(dst, l.sent[dir], plaintext)
}

// Seal is AppendSeal into a new slice.
func (l *Link) Seal(dir int, plaintext []byte) []byte {
	return l.AppendSeal(nil, dir, plaintext)
}

// AppendOpen verifies an envelope sealed on this link in either direction
// and appends its plaintext to dst. On error dst is returned unchanged.
func (l *Link) AppendOpen(dst, envelope []byte) ([]byte, error) {
	return l.key.appendOpen(dst, envelope)
}

// Open is AppendOpen into a new slice.
func (l *Link) Open(envelope []byte) ([]byte, error) {
	return l.AppendOpen(nil, envelope)
}
