//go:build !amd64

package wsncrypto

// Only amd64 has the AES-NI routines; elsewhere the generic code runs.
const hasAESNI = false

func expandKeyAsm(key *[KeySize]byte, s *schedule) { expandKeyGeneric(key, s) }

func encryptBlockAsm(s *schedule, dst, src *[blockSize]byte) { encryptBlockGeneric(s, dst, src) }
