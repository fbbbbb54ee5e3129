package wsncrypto

import "encoding/binary"

// blockSize is the AES block size in bytes.
const blockSize = 16

// schedule is an expanded AES-256 encryption key: the 15 round keys of
// FIPS-197 §5.2, 16 bytes each, in block byte order (byte i of a round key
// is XORed into byte i of the state). It is a plain value, so a link keeps
// it in place and re-keying overwrites it without allocating.
type schedule [15 * blockSize]byte

// expand fills s with the key schedule of key, on the AES-NI path where the
// CPU has it and the generic path elsewhere.
func (s *schedule) expand(key *[KeySize]byte) {
	if hasAESNI {
		expandKeyAsm(key, s)
		return
	}
	expandKeyGeneric(key, s)
}

// encrypt sets dst to the AES-256 encryption of src under s.
func (s *schedule) encrypt(dst, src *[blockSize]byte) {
	if hasAESNI {
		encryptBlockAsm(s, dst, src)
		return
	}
	encryptBlockGeneric(s, dst, src)
}

// sbox and te0..te3 are the AES S-box and the encryption T-tables: te0[x]
// is the MixColumns column (2·S[x], S[x], S[x], 3·S[x]) as a big-endian
// word, and te1..te3 are te0 rotated right by 8, 16 and 24 bits.
var (
	sbox               [256]byte
	te0, te1, te2, te3 [256]uint32
)

func init() {
	// Walk the multiplicative group of GF(2⁸) with generator 3: p runs
	// through 3^k and q through 3^-k, so q is p's inverse, and the S-box
	// entry is the affine transform of the inverse (FIPS-197 §5.1.1).
	p, q := byte(1), byte(1)
	for {
		p ^= xtime(p)
		q ^= q << 1
		q ^= q << 2
		q ^= q << 4
		if q&0x80 != 0 {
			q ^= 0x09
		}
		sbox[p] = 0x63 ^ q ^ rotl8(q, 1) ^ rotl8(q, 2) ^ rotl8(q, 3) ^ rotl8(q, 4)
		if p == 1 {
			break
		}
	}
	sbox[0] = 0x63
	for x, s := range sbox {
		w := uint32(xtime(s))<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(xtime(s)^s)
		te0[x], te1[x], te2[x], te3[x] = w, w>>8|w<<24, w>>16|w<<16, w>>24|w<<8
	}
}

// xtime multiplies b by x (that is, 2) in GF(2⁸) modulo x⁸+x⁴+x³+x+1.
func xtime(b byte) byte {
	return b<<1 ^ 0x1b*(b>>7)
}

func rotl8(b byte, n uint) byte { return b<<n | b>>(8-n) }

// expandKeyGeneric is the FIPS-197 §5.2 key expansion for Nk = 8.
func expandKeyGeneric(key *[KeySize]byte, s *schedule) {
	copy(s[:], key[:])
	rcon := byte(1)
	for i := KeySize; i < len(s); i += 4 {
		t := [4]byte(s[i-4 : i])
		switch i % KeySize {
		case 0:
			t = [4]byte{sbox[t[1]] ^ rcon, sbox[t[2]], sbox[t[3]], sbox[t[0]]}
			rcon = xtime(rcon)
		case KeySize / 2:
			t = [4]byte{sbox[t[0]], sbox[t[1]], sbox[t[2]], sbox[t[3]]}
		}
		for j := range t {
			s[i+j] = s[i-KeySize+j] ^ t[j]
		}
	}
}

// encryptBlockGeneric is the T-table form of the AES-256 cipher: 13 full
// rounds through te0..te3, then SubBytes, ShiftRows and AddRoundKey.
func encryptBlockGeneric(s *schedule, dst, src *[blockSize]byte) {
	rk := func(r, c int) uint32 { return binary.BigEndian.Uint32(s[16*r+4*c:]) }
	s0 := binary.BigEndian.Uint32(src[0:]) ^ rk(0, 0)
	s1 := binary.BigEndian.Uint32(src[4:]) ^ rk(0, 1)
	s2 := binary.BigEndian.Uint32(src[8:]) ^ rk(0, 2)
	s3 := binary.BigEndian.Uint32(src[12:]) ^ rk(0, 3)
	for r := 1; r < 14; r++ {
		s0, s1, s2, s3 =
			rk(r, 0)^te0[s0>>24]^te1[s1>>16&0xff]^te2[s2>>8&0xff]^te3[s3&0xff],
			rk(r, 1)^te0[s1>>24]^te1[s2>>16&0xff]^te2[s3>>8&0xff]^te3[s0&0xff],
			rk(r, 2)^te0[s2>>24]^te1[s3>>16&0xff]^te2[s0>>8&0xff]^te3[s1&0xff],
			rk(r, 3)^te0[s3>>24]^te1[s0>>16&0xff]^te2[s1>>8&0xff]^te3[s2&0xff]
	}
	last := func(a, b, c, d uint32) uint32 {
		return uint32(sbox[a>>24])<<24 | uint32(sbox[b>>16&0xff])<<16 | uint32(sbox[c>>8&0xff])<<8 | uint32(sbox[d&0xff])
	}
	binary.BigEndian.PutUint32(dst[0:], last(s0, s1, s2, s3)^rk(14, 0))
	binary.BigEndian.PutUint32(dst[4:], last(s1, s2, s3, s0)^rk(14, 1))
	binary.BigEndian.PutUint32(dst[8:], last(s2, s3, s0, s1)^rk(14, 2))
	binary.BigEndian.PutUint32(dst[12:], last(s3, s0, s1, s2)^rk(14, 3))
}
